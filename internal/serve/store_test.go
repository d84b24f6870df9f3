package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"subtab/internal/core"
	"subtab/internal/query"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// testTable builds a deterministic mixed table.
func testTable(name string, rows int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	nums := make([]float64, rows)
	cats := make([]string, rows)
	grp := make([]string, rows)
	for i := range nums {
		g := rng.Intn(3)
		nums[i] = float64(g*20 + rng.Intn(8))
		cats[i] = fmt.Sprintf("c%d", g)
		grp[i] = fmt.Sprintf("g%d", rng.Intn(4))
	}
	t, err := table.FromColumns(name, []*table.Column{
		table.NewNumeric("num", nums),
		table.NewCategorical("cat", cats),
		table.NewCategorical("grp", grp),
	})
	if err != nil {
		panic(err)
	}
	return t
}

// testOptions are small, deterministic pipeline settings.
func testOptions() core.Options {
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 12, Epochs: 2, Seed: 2}
	opt.ClusterSeed = 9
	return opt
}

func buildModel(tb testing.TB, name string, rows int) *core.Model {
	tb.Helper()
	m, err := core.Preprocess(testTable(name, rows, 11), testOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestSingleflight is the core serving guarantee: N concurrent requests for
// the same un-cached table trigger exactly one Preprocess.
func TestSingleflight(t *testing.T) {
	s := NewStore(StoreOptions{})
	var builds atomic.Int32
	build := func() (*core.Model, error) {
		builds.Add(1)
		time.Sleep(30 * time.Millisecond) // hold the flight open for the herd
		return buildModel(t, "flock", 200), nil
	}
	const n = 16
	models := make([]*core.Model, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.GetOrBuild("flock", build)
			if err != nil {
				t.Error(err)
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent requests ran %d builds, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent callers received different models")
		}
	}
	if got := s.Stats().Builds; got != 1 {
		t.Fatalf("stats.Builds = %d, want 1", got)
	}
}

func TestSingleflightError(t *testing.T) {
	s := NewStore(StoreOptions{})
	boom := errors.New("boom")
	var builds atomic.Int32
	build := func() (*core.Model, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond)
		return nil, boom
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.GetOrBuild("bad", build); !errors.Is(err, boom) {
				t.Errorf("err = %v, want boom", err)
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (errors must not be cached, but the flight must be shared)", got)
	}
	// A failed build leaves nothing cached: the next request builds again.
	if _, err := s.GetOrBuild("bad", build); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
}

func TestGetUnknown(t *testing.T) {
	s := NewStore(StoreOptions{})
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestLRUEvictionDiskReload exercises the disk-backed LRU: the coldest model
// is evicted from memory but survives on disk and reloads without a build.
func TestLRUEvictionDiskReload(t *testing.T) {
	s := NewStore(StoreOptions{MaxModels: 2, Dir: t.TempDir()})
	for _, name := range []string{"a", "b", "c"} {
		if err := s.Put(name, buildModel(t, name, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MemoryLen(); got != 2 {
		t.Fatalf("memory holds %d models, want 2", got)
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	names := s.Names()
	if len(names) != 3 {
		t.Fatalf("Names() = %v, want 3 tables", names)
	}
	// "a" was evicted (LRU); it must come back from disk, not a rebuild.
	m, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if m.T.Name != "a" {
		t.Fatalf("loaded table %q, want %q", m.T.Name, "a")
	}
	st := s.Stats()
	if st.DiskLoads != 1 || st.Builds != 0 {
		t.Fatalf("stats = %+v, want exactly one disk load and no builds", st)
	}
}

func TestRemove(t *testing.T) {
	s := NewStore(StoreOptions{Dir: t.TempDir()})
	if err := s.Put("x", buildModel(t, "x", 120)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("x") {
		t.Fatal("Contains after Put = false")
	}
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("Contains after Remove = true")
	}
	if _, err := s.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (disk copy must be gone too)", err)
	}
}

// TestCorruptDiskSelfHeals: a truncated cache file is treated as a miss and
// rebuilt over.
func TestCorruptDiskSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	if err := s.Put("h", buildModel(t, "h", 120)); err != nil {
		t.Fatal(err)
	}
	// Drop from memory, then corrupt the file on disk.
	s.mu.Lock()
	el := s.entries["h"]
	s.lru.Remove(el)
	delete(s.entries, "h")
	s.mu.Unlock()
	path := s.path("h")
	if err := truncateFile(path, 64); err != nil {
		t.Fatal(err)
	}
	var rebuilt atomic.Int32
	m, err := s.GetOrBuild("h", func() (*core.Model, error) {
		rebuilt.Add(1)
		return buildModel(t, "h", 120), nil
	})
	if err != nil || m == nil {
		t.Fatal(err)
	}
	if rebuilt.Load() != 1 {
		t.Fatal("corrupt disk cache should fall through to a rebuild")
	}
	// The rebuild must have healed the file: a fresh store loads it.
	s2 := NewStore(StoreOptions{Dir: dir})
	if _, err := s2.Get("h"); err != nil {
		t.Fatalf("healed cache failed to load: %v", err)
	}
}

// TestServiceConcurrentAccess hammers one service from many goroutines mixing
// selects, query-selects, rule mining and table listing. Its real assertion
// is the race detector (go test -race ./internal/serve).
func TestServiceConcurrentAccess(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("conc", testTable("conc", 300, 5), nil, Resident, false); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Where: []query.Predicate{{Col: "num", Op: query.Geq, Num: 20}}}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := svc.Select("conc", core.ExploreSpec{K: 5, L: 2}); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := svc.Select("conc", core.ExploreSpec{Query: q, K: 4, L: 2, Targets: []string{"cat"}}); err != nil {
						t.Error(err)
					}
				case 2:
					if _, _, err := svc.Rules("conc", rulesOptionsForTest()); err != nil {
						t.Error(err)
					}
				case 3:
					if len(svc.Tables()) == 0 {
						t.Error("Tables() = empty")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Selections against a warm cache must be deterministic across the run.
	a, err := svc.Select("conc", core.ExploreSpec{K: 5, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Select("conc", core.ExploreSpec{K: 5, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.View.String() != b.View.String() {
		t.Fatal("warm selections diverged")
	}
}

// TestMemoryOnlyNeverEvicts: without a disk cache there is nothing to
// rebuild an evicted model from, so the LRU bound must not apply — an
// acknowledged table must never silently 404.
func TestMemoryOnlyNeverEvicts(t *testing.T) {
	s := NewStore(StoreOptions{MaxModels: 2})
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := s.Put(name, buildModel(t, name, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MemoryLen(); got != 4 {
		t.Fatalf("memory holds %d models, want all 4", got)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := s.Get(name); err != nil {
			t.Fatalf("Get(%q) after over-bound puts: %v", name, err)
		}
	}
}

// TestBuilderNotPoisonedByLookupFlight: a GetOrBuild carrying a build
// function that arrives while a build-less lookup flight is in progress
// must not inherit the lookup's ErrNotFound — it retries with its build.
func TestBuilderNotPoisonedByLookupFlight(t *testing.T) {
	s := NewStore(StoreOptions{})
	// Plant a build-less flight, as a concurrent Get would.
	c := &flightCall{done: make(chan struct{}), hasBuild: false}
	s.mu.Lock()
	s.inflight["x"] = c
	s.mu.Unlock()

	got := make(chan error, 1)
	go func() {
		_, err := s.GetOrBuild("x", func() (*core.Model, error) {
			return buildModel(t, "x", 80), nil
		})
		got <- err
	}()
	// The builder must be waiting on the lookup flight, not failed.
	select {
	case err := <-got:
		t.Fatalf("builder returned %v before the lookup flight resolved", err)
	case <-time.After(30 * time.Millisecond):
	}
	// Resolve the lookup flight with its natural result: not found.
	c.err = fmt.Errorf("%w: %q", ErrNotFound, "x")
	s.mu.Lock()
	delete(s.inflight, "x")
	s.mu.Unlock()
	close(c.done)
	if err := <-got; err != nil {
		t.Fatalf("builder inherited the lookup's failure: %v", err)
	}
	if _, err := s.Get("x"); err != nil {
		t.Fatalf("model not cached after build: %v", err)
	}
}

// TestPutWinsOverInflightBuild: a replacement Put that lands while a build
// of the same name is in flight must not be clobbered when the build
// finishes — in memory or on disk.
func TestPutWinsOverInflightBuild(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	replacement := buildModel(t, "new", 100)
	building := make(chan struct{})
	done := make(chan *core.Model, 1)
	go func() {
		m, err := s.GetOrBuild("x", func() (*core.Model, error) {
			close(building)
			time.Sleep(50 * time.Millisecond) // Put lands mid-build
			return buildModel(t, "old", 100), nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- m
	}()
	<-building
	if err := s.Put("x", replacement); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got != replacement {
		t.Fatal("in-flight build caller received the stale model, not the replacement")
	}
	if m, err := s.Get("x"); err != nil || m != replacement {
		t.Fatalf("store serves %v (%p), want the replacement", err, m)
	}
	// Disk must hold the replacement too: a fresh store loads a model whose
	// table is the replacement's ("new"), not the stale build's ("old").
	s2 := NewStore(StoreOptions{Dir: dir})
	m2, err := s2.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if m2.T.Name != "new" {
		t.Fatalf("disk holds table %q, want %q (stale build overwrote the replacement)", m2.T.Name, "new")
	}
}

// TestRulesModelConsistency: rules are always labeled against the model
// they were mined from, even when the table is replaced concurrently.
func TestRulesModelConsistency(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("r", testTable("v1", 200, 3), nil, Resident, false); err != nil {
		t.Fatal(err)
	}
	rs, m, err := svc.Rules("r", rulesOptionsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if m.T.Name != "v1" {
		t.Fatalf("rules mined against %q", m.T.Name)
	}
	if _, err := svc.AddTable("r", testTable("v2", 150, 4), nil, Resident, true); err != nil {
		t.Fatal(err)
	}
	// The replace invalidated the cache: a fresh call mines against v2.
	rs2, m2, err := svc.Rules("r", rulesOptionsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if m2.T.Name != "v2" {
		t.Fatalf("post-replace rules mined against %q, want v2", m2.T.Name)
	}
	_ = rs
	_ = rs2
}

// TestRulesDoNotPinEvictedModels: mined rules are cached on the model they
// were mined from, so a model the store evicted becomes garbage once no
// request holds it — a service-wide rules cache used to keep every such
// model on the heap after the ledger had released its bytes.
func TestRulesDoNotPinEvictedModels(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: 2}), testOptions())
	models := make([]weak.Pointer[core.Model], 10)
	for i := range models {
		name := fmt.Sprintf("t%d", i)
		if _, err := svc.AddTable(name, testTable(name, 120, int64(i)), nil, Resident, false); err != nil {
			t.Fatal(err)
		}
		rs, m, err := svc.Rules(name, rulesOptionsForTest())
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			t.Fatalf("no rules mined on %s", name)
		}
		models[i] = weak.Make(m)
	}
	if ev := svc.Store().Stats().Evictions; ev != 8 {
		t.Fatalf("store evicted %d models, want 8", ev)
	}
	runtime.GC()
	runtime.GC()
	for i, p := range models[:8] {
		if p.Value() != nil {
			t.Errorf("evicted model t%d is still reachable after GC", i)
		}
	}
	runtime.KeepAlive(svc) // the service's own caches must not be what pins
}

func TestServiceAddExistsAndReplace(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("dup", testTable("dup", 100, 1), nil, Resident, false); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddTable("dup", testTable("dup", 100, 2), nil, Resident, false); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	if _, err := svc.AddTable("dup", testTable("dup", 100, 2), nil, Resident, true); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if _, err := svc.AddTable("  ", testTable("blank", 50, 1), nil, Resident, false); err == nil {
		t.Fatal("blank names must be rejected")
	}
}
