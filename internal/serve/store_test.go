package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
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
	return residentModel(tb, testTable(name, rows, 11))
}

// residentModel pre-processes t with testOptions into a resident model:
// the reference a served table's selections are compared with.
func residentModel(tb testing.TB, t *table.Table) *core.Model {
	tb.Helper()
	m, err := core.Preprocess(t, testOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestSingleflight is the core serving guarantee for uploads: N concurrent
// adds of one name run exactly one Preprocess. One add succeeds and every
// other gets ErrExists — over HTTP, the 409 envelope.
func TestSingleflight(t *testing.T) {
	const n = 8
	herd := func(add func(i int) error) []error {
		errs := make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = add(i)
			}()
		}
		close(start)
		wg.Wait()
		return errs
	}
	// winners returns the indexes of the calls that succeeded.
	winners := func(errs []error) []int {
		var wins []int
		for i, err := range errs {
			switch {
			case err == nil:
				wins = append(wins, i)
			case !errors.Is(err, ErrExists):
				t.Errorf("add %d: %v, want success or ErrExists", i, err)
			}
		}
		return wins
	}

	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	models := make([]*core.Model, n)
	errs := herd(func(i int) (err error) {
		models[i], err = svc.AddTable("flock", testTable("flock", 200, 11), nil, Unsharded, false)
		return err
	})
	wins := winners(errs)
	if len(wins) != 1 {
		t.Fatalf("%d of %d concurrent adds of one name succeeded, want 1: %v", len(wins), n, errs)
	}
	if got := svc.Store().Stats().Builds; got != 1 {
		t.Fatalf("stats.Builds = %d, want 1", got)
	}
	if m, err := svc.Model("flock"); err != nil || m != models[wins[0]] {
		t.Fatalf("store serves %p (%v), want the winning add's model", m, err)
	}

	hsvc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	srv := httptest.NewServer(NewHandler(hsvc, nil))
	t.Cleanup(srv.Close)
	errs = herd(func(int) error {
		resp, err := http.Post(srv.URL+"/tables?name=flock&workers=1", "text/csv", strings.NewReader(testCSV(200)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			return nil
		}
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusConflict || env.Code != "conflict" || env.Message == "" {
			return fmt.Errorf("status %d with %+v, want a 409 conflict envelope with a message", resp.StatusCode, env)
		}
		return ErrExists
	})
	if wins := winners(errs); len(wins) != 1 {
		t.Fatalf("%d of %d concurrent uploads of one name answered 201, want 1: %v", len(wins), n, errs)
	}
	if got := hsvc.Store().Stats().Builds; got != 1 {
		t.Fatalf("HTTP stats.Builds = %d, want 1", got)
	}
}

// TestSingleflightError pins the load flight and failed adds. N concurrent
// Gets of a table that lives only on disk run one load and return one
// model. An add whose Preprocess fails leaves no file and no entry, and the
// next add builds again. Builds counts every successful add, whatever its
// layout or replace.
func TestSingleflightError(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewService(NewStore(StoreOptions{Dir: dir}), testOptions()).AddTable("disk", testTable("disk", 200, 3), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	var prepared atomic.Int32
	s := NewStore(StoreOptions{Dir: dir, PrepareModel: func(string, *core.Model) error {
		prepared.Add(1)
		time.Sleep(30 * time.Millisecond) // hold the flight open for the herd
		return nil
	}})
	const n = 8
	models := make([]*core.Model, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := s.Get("disk")
			if err != nil {
				t.Error(err)
			}
			models[i] = m
		}()
	}
	wg.Wait()
	if got := prepared.Load(); got != 1 {
		t.Fatalf("%d concurrent Gets prepared %d loaded models, want 1", n, got)
	}
	if st := s.Stats(); st.DiskLoads != 1 || st.Builds != 0 {
		t.Fatalf("stats = %+v, want one disk load and no builds", st)
	}
	for i := 1; i < n; i++ {
		if models[i] != models[0] {
			t.Fatal("concurrent Gets received different models")
		}
	}

	svc := NewService(s, testOptions())
	if _, err := svc.AddTable("bad", table.New("bad"), nil, Unsharded, false); !errors.Is(err, core.ErrNoColumns) {
		t.Fatalf("err = %v, want core.ErrNoColumns", err)
	}
	if got, want := dirFiles(t, dir), []string{s.path("disk")}; !slices.Equal(got, want) {
		t.Fatalf("a failed add left %v, want %v", got, want)
	}
	if s.Contains("bad") || s.MemoryLen() != 1 {
		t.Fatalf("a failed add left an entry: Contains = %v, %d in memory", s.Contains("bad"), s.MemoryLen())
	}
	if got := s.Stats().Builds; got != 0 {
		t.Fatalf("a failed add counted %d builds", got)
	}
	for i, add := range []struct {
		l       Layout
		replace bool
	}{{Unsharded, false}, {Unsharded, true}, {Shards(1), true}, {Shards(2), true}} {
		if _, err := svc.AddTable("bad", testTable("bad", 150, 4), nil, add.l, add.replace); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Builds; got != int64(i+1) {
			t.Fatalf("after add %d (layout %d, replace %v): stats.Builds = %d, want %d", i, add.l, add.replace, got, i+1)
		}
	}
}

// TestNewStoreNeedsDir: every store serves its tables from files in its
// directory, so a store without one is refused at construction instead of
// writing model files into the working directory.
func TestNewStoreNeedsDir(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore with an empty Dir did not panic")
		}
	}()
	NewStore(StoreOptions{})
}

func TestGetUnknown(t *testing.T) {
	s := NewStore(StoreOptions{Dir: t.TempDir()})
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestLRUEvictionDiskReload exercises the disk-backed LRU: the coldest model
// is evicted from memory but survives on disk and reloads without a build.
func TestLRUEvictionDiskReload(t *testing.T) {
	s := NewStore(StoreOptions{MaxModels: 2, Dir: t.TempDir()})
	for _, name := range []string{"a", "b", "c"} {
		if err := s.put(name, buildModel(t, name, 150)); err != nil {
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
	if err := s.put("x", buildModel(t, "x", 120)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("x") {
		t.Fatal("Contains after put = false")
	}
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("Contains after Remove = true")
	}
	if _, err := s.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound (disk copy must be gone too)", err)
	}
}

// TestCorruptDiskSelfHeals: a truncated cache file reads as a miss, and a
// replacing add rebuilds over it.
func TestCorruptDiskSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreOptions{Dir: dir})
	svc := NewService(s, testOptions())
	if _, err := svc.AddTable("h", testTable("h", 120, 11), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	// Drop from memory, then corrupt the file on disk.
	s.mu.Lock()
	el := s.entries["h"]
	s.lru.Remove(el)
	delete(s.entries, "h")
	s.mu.Unlock()
	if err := truncateFile(s.path("h"), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("h"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound for a corrupt cache file", err)
	}
	if _, err := svc.AddTable("h", testTable("h", 120, 11), nil, Unsharded, true); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Builds; got != 2 {
		t.Fatalf("stats.Builds = %d, want 2", got)
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
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	if _, err := svc.AddTable("conc", testTable("conc", 300, 5), nil, Unsharded, false); err != nil {
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

// TestBuilderNotPoisonedByLookupFlight: an add that arrives while a
// lookup flight of its name is in progress neither waits for the lookup
// nor inherits its ErrNotFound.
func TestBuilderNotPoisonedByLookupFlight(t *testing.T) {
	s := NewStore(StoreOptions{Dir: t.TempDir()})
	// Plant a lookup flight, as a concurrent Get would.
	c := &flightCall{done: make(chan struct{})}
	s.mu.Lock()
	s.inflight["x"] = c
	s.mu.Unlock()

	added := make(chan error, 1)
	go func() {
		_, err := NewService(s, testOptions()).AddTable("x", testTable("x", 80, 11), nil, Unsharded, false)
		added <- err
	}()
	select {
	case err := <-added:
		if err != nil {
			t.Fatalf("add during a lookup flight: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the add is waiting on the lookup flight")
	}
	// Resolve the lookup flight with its natural result: not found.
	c.err = fmt.Errorf("%w: %q", ErrNotFound, "x")
	s.mu.Lock()
	delete(s.inflight, "x")
	s.mu.Unlock()
	close(c.done)
	if _, err := s.Get("x"); err != nil {
		t.Fatalf("model not cached after the add: %v", err)
	}
}

// TestPutWinsOverInflightBuild: a replacement that lands while a disk load
// of the same name is in flight must not be clobbered when the load
// finishes — in memory or on disk.
func TestPutWinsOverInflightBuild(t *testing.T) {
	dir := t.TempDir()
	if err := NewStore(StoreOptions{Dir: dir}).put("x", buildModel(t, "old", 100)); err != nil {
		t.Fatal(err)
	}
	loading, proceed := make(chan struct{}), make(chan struct{})
	s := NewStore(StoreOptions{Dir: dir, PrepareModel: func(string, *core.Model) error {
		close(loading)
		<-proceed // the put lands mid-load
		return nil
	}})
	done := make(chan *core.Model, 1)
	go func() {
		m, err := s.Get("x")
		if err != nil {
			t.Error(err)
		}
		done <- m
	}()
	<-loading
	replacement := buildModel(t, "new", 100)
	if err := s.put("x", replacement); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	got := <-done
	// The store installs the replacement as mapped from its new file.
	m, err := s.Get("x")
	if err != nil || m.T.Name != "new" {
		t.Fatalf("store serves %v (%v), want the replacement", err, m)
	}
	if got != m {
		t.Fatal("the in-flight load's caller received the stale model, not the replacement")
	}
	// Disk must hold the replacement too: a fresh store loads a model whose
	// table is the replacement's ("new"), not the stale load's ("old").
	m2, err := NewStore(StoreOptions{Dir: dir}).Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if m2.T.Name != "new" {
		t.Fatalf("disk holds table %q, want %q", m2.T.Name, "new")
	}
}

// TestRulesModelConsistency: rules are always labeled against the model
// they were mined from, even when the table is replaced concurrently.
func TestRulesModelConsistency(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	if _, err := svc.AddTable("r", testTable("v1", 200, 3), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	rs, m, err := svc.Rules("r", rulesOptionsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if m.T.Name != "v1" {
		t.Fatalf("rules mined against %q", m.T.Name)
	}
	if _, err := svc.AddTable("r", testTable("v2", 150, 4), nil, Unsharded, true); err != nil {
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
// model on the heap after the ledger had released its bytes. Every table
// also memoizes an overview, whose memo the store retains past the
// eviction: it must hold neither the model nor its mapping.
func TestRulesDoNotPinEvictedModels(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: 2}), testOptions())
	models := make([]weak.Pointer[core.Model], 10)
	for i := range models {
		name := fmt.Sprintf("t%d", i)
		if _, err := svc.AddTable(name, testTable(name, 120, int64(i)), nil, Unsharded, false); err != nil {
			t.Fatal(err)
		}
		rs, m, err := svc.Rules(name, rulesOptionsForTest())
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			t.Fatalf("no rules mined on %s", name)
		}
		if _, err := m.SelectExplore(core.ExploreSpec{K: 4, L: 2}); err != nil {
			t.Fatal(err)
		}
		if m.ShareOverviews(nil).Bytes() == 0 {
			t.Fatalf("the overview of %s filled no memo", name)
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
	if n := len(svc.Store().memos); n != 10 {
		t.Fatalf("the store keeps %d overview memos, want all 10", n)
	}
	if _, err := os.ReadFile("/proc/self/maps"); err != nil {
		t.Log("no /proc/self/maps: the evicted models' mappings were not checked")
		runtime.KeepAlive(svc)
		return
	}
	for i := range 8 {
		path := svc.Store().path(fmt.Sprintf("t%d", i))
		for round := 0; ; round++ {
			runtime.GC()
			maps, err := os.ReadFile("/proc/self/maps")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(maps, []byte(path)) {
				break
			}
			if round == 100 {
				t.Fatalf("evicted model t%d's file is still mapped after GC", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	runtime.KeepAlive(svc) // the service's own caches must not be what pins
}

func TestServiceAddExistsAndReplace(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	if _, err := svc.AddTable("dup", testTable("dup", 100, 1), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddTable("dup", testTable("dup", 100, 2), nil, Unsharded, false); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	if _, err := svc.AddTable("dup", testTable("dup", 100, 2), nil, Unsharded, true); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if _, err := svc.AddTable("  ", testTable("blank", 50, 1), nil, Unsharded, false); err == nil {
		t.Fatal("blank names must be rejected")
	}
}
