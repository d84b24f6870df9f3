package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/modelio"
)

// The store keeps one overview memo per table generation: it survives the
// generation's evictions and reloads, and a replace, an append or a Remove
// ends it.

// checkOverviewClass asserts that the overview-cache ledger holds exactly
// the memos the store keeps, resident and retained: no memo outlives its
// generation in the ledger.
func checkOverviewClass(t *testing.T, g *memgov.Governor, s *Store, when string) {
	t.Helper()
	s.mu.Lock()
	var want int64
	for _, gm := range s.memos {
		want += gm.memo.Bytes()
	}
	s.mu.Unlock()
	if got := g.ClassBytes(memgov.ClassOverviewCache); got != want {
		t.Fatalf("%s: overview-cache ledger %d, the store's memos hold %d", when, got, want)
	}
}

// inMemory reports whether the store holds a model of name.
func inMemory(s *Store, name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[name]
	return ok
}

// TestReloadedTableKeepsOverviewMemo: a table evicted and reloaded from
// its unchanged file renders every overview shape it had memoized without
// choosing again — the reloaded model takes its generation's memo, and no
// select grows the overview-cache ledger — and each overview is byte for
// byte a cold select of a freshly loaded model. Exact and scaled path.
func TestReloadedTableKeepsOverviewMemo(t *testing.T) {
	for _, sc := range []*core.ScaleOptions{nil, scaleForce()} {
		g := memgov.New(0)
		svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: 1, Governor: g}), testOptions())
		s := svc.Store()
		for i, name := range []string{"a", "b"} {
			if _, err := svc.AddTable(name, testTable(name, 600, int64(i+1)), nil, Unsharded, false); err != nil {
				t.Fatal(err)
			}
		}
		specs := []core.ExploreSpec{
			{K: 5, L: 2, Scale: sc},
			{K: 4, L: 3, Targets: []string{"grp"}, Scale: sc},
		}
		first := make([]string, len(specs))
		for i, spec := range specs {
			first[i] = mustServeSelect(t, svc, "a", spec)
		}
		ma, err := svc.Model("a")
		if err != nil {
			t.Fatal(err)
		}
		memo := ma.ShareOverviews(nil)
		held := memo.Bytes()
		if held == 0 {
			t.Fatal("the overviews filled no memo")
		}
		mustServeSelect(t, svc, "b", specs[0])
		if inMemory(s, "a") {
			t.Fatal("selecting b did not evict a")
		}
		if memo.Bytes() != held {
			t.Fatalf("the eviction left a's memo %d bytes, want %d", memo.Bytes(), held)
		}
		checkOverviewClass(t, g, s, "after the eviction")

		loads := s.Stats().DiskLoads
		ledger := g.ClassBytes(memgov.ClassOverviewCache)
		for i, spec := range specs {
			got := mustServeSelect(t, svc, "a", spec)
			fresh, err := modelio.LoadFile(s.path("a"))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := fresh.SelectExplore(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := subTableFingerprint(cold); got != want || got != first[i] {
				t.Fatalf("scale %v shape %d after the reload:\n got %s\nwant %s (cold)\n     %s (before)", sc, i, got, want, first[i])
			}
		}
		if n := s.Stats().DiskLoads - loads; n != 1 {
			t.Fatalf("the reload took %d disk loads, want 1", n)
		}
		if got := g.ClassBytes(memgov.ClassOverviewCache); got != ledger {
			t.Fatalf("the reloaded table's overviews moved the ledger %d -> %d: they chose again", ledger, got)
		}
		mr, err := svc.Model("a")
		if err != nil {
			t.Fatal(err)
		}
		if mr == ma || mr.ShareOverviews(nil) != memo {
			t.Fatal("the reload is not a new model on its generation's memo")
		}
		checkOverviewClass(t, g, s, "after the reload")
	}
}

// TestReplacedOrAppendedTableNeverServesOldOverview: a replace or an
// append swaps in a new model, with the table in memory and with it
// evicted (its memo retained). The next select of the same shape must be
// the new table's: equal to a cold select of a resident build of the
// replacement, and to a cold select of the appended model after its
// caches are released. Each step changes the overview, so an old memo
// entry served by mistake would show. A Remove while evicted ends the
// memo too: the ledger holds only the memos the store keeps, and the
// table added again under the name is chosen anew.
func TestReplacedOrAppendedTableNeverServesOldOverview(t *testing.T) {
	for _, evicted := range []bool{false, true} {
		for _, sc := range []*core.ScaleOptions{nil, scaleForce()} {
			g := memgov.New(0)
			opt := StoreOptions{Dir: t.TempDir(), Governor: g}
			if evicted {
				opt.MaxModels = 1
			}
			svc := NewService(NewStore(opt), testOptions())
			s := svc.Store()
			spec := core.ExploreSpec{K: 5, L: 2, Targets: []string{"grp"}, Scale: sc}
			if _, err := svc.AddTable("filler", testTable("filler", 300, 9), nil, Unsharded, false); err != nil {
				t.Fatal(err)
			}
			evict := func(when string) {
				t.Helper()
				if !evicted {
					return
				}
				mustServeSelect(t, svc, "filler", spec)
				if inMemory(s, "ov") {
					t.Fatalf("%s: ov is still in memory", when)
				}
				checkOverviewClass(t, g, s, when)
			}
			if _, err := svc.AddTable("ov", testTable("ov", 600, 1), nil, Unsharded, true); err != nil {
				t.Fatal(err)
			}
			first := mustServeSelect(t, svc, "ov", spec)
			if again := mustServeSelect(t, svc, "ov", spec); again != first {
				t.Fatalf("repeated overview differs:\n got %s\nwant %s", again, first)
			}

			evict("before the replace")
			replacement := testTable("ov", 600, 2)
			if _, err := svc.AddTable("ov", replacement, nil, Unsharded, true); err != nil {
				t.Fatal(err)
			}
			replaced := mustServeSelect(t, svc, "ov", spec)
			cold, err := residentModel(t, replacement).SelectExplore(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := subTableFingerprint(cold); replaced != want || replaced == first {
				t.Fatalf("evicted %v: after replace got %s\nwant %s\n(before: %s)", evicted, replaced, want, first)
			}

			evict("before the append")
			if _, _, err := svc.AppendRows("ov", testTable("ov", 600, 3), core.AppendOptions{DriftThreshold: 1}); err != nil {
				t.Fatal(err)
			}
			appended := mustServeSelect(t, svc, "ov", spec)
			m, err := svc.Model("ov")
			if err != nil {
				t.Fatal(err)
			}
			m.ReleaseVectorCache()
			cold, err = m.SelectExplore(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := subTableFingerprint(cold); appended != want || appended == replaced {
				t.Fatalf("evicted %v: after append got %s\nwant %s\n(before: %s)", evicted, appended, want, replaced)
			}

			evict("before the remove")
			s.Remove("ov")
			checkOverviewClass(t, g, s, "after the remove")
			again := testTable("ov", 600, 4)
			if _, err := svc.AddTable("ov", again, nil, Unsharded, false); err != nil {
				t.Fatal(err)
			}
			readded := mustServeSelect(t, svc, "ov", spec)
			cold, err = residentModel(t, again).SelectExplore(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := subTableFingerprint(cold); readded != want || readded == appended {
				t.Fatalf("evicted %v: after remove and add got %s\nwant %s\n(before: %s)", evicted, readded, want, appended)
			}
			checkOverviewClass(t, g, s, "after the add")
		}
	}
}

// TestRetainedOverviewsKeepBudget fills four overview shapes on each of
// twenty small tables under a budget that holds the hottest table with
// its caches but not every table's memo. Evicted tables retain their
// memos until the budget binds; then the store's evictor drops the
// longest-evicted first, so the ledger's peak stays at or under the
// budget while some memos are still retained. Removing every table
// settles the class to zero.
func TestRetainedOverviewsKeepBudget(t *testing.T) {
	const tables, budget = 20, 8 << 10
	g := memgov.New(budget)
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: tables, Governor: g}), testOptions())
	s := svc.Store()
	var one int64 // one table's memo
	for i := range tables {
		name := fmt.Sprintf("t%02d", i)
		if _, err := svc.AddTable(name, testTable(name, 60, int64(i)), nil, Unsharded, false); err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 5; k++ {
			mustServeSelect(t, svc, name, core.ExploreSpec{K: k, L: 2})
		}
		if peak := g.Peak(); peak > budget {
			t.Fatalf("after table %d: ledger peak %d over the budget %d", i, peak, budget)
		}
		m, err := svc.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		one = max(one, m.ShareOverviews(nil).Bytes())
		checkOverviewClass(t, g, s, "after "+name)
	}
	if one*tables <= budget {
		t.Fatalf("twenty memos of %d bytes fit the %d-byte budget: nothing to drop", one, budget)
	}
	s.mu.Lock()
	retained, oldest, newest, last := 0, uint64(math.MaxUint64), uint64(0), s.evictSeq
	for _, gm := range s.memos {
		if gm.evicted > 0 {
			retained++
			oldest, newest = min(oldest, gm.evicted), max(newest, gm.evicted)
		}
	}
	s.mu.Unlock()
	if retained == 0 || retained >= tables-1 {
		t.Fatalf("%d of %d evicted tables retain their memo, want some but not all", retained, tables-1)
	}
	if kept := int(newest - oldest + 1); kept != retained || newest != last {
		t.Fatalf("the retained memos span evictions %d..%d of %d: a newer one was dropped before an older", oldest, newest, last)
	}
	for _, name := range s.Names() {
		s.Remove(name)
	}
	if got := g.ClassBytes(memgov.ClassOverviewCache); got != 0 {
		t.Fatalf("overview-cache ledger %d after every table was removed, want 0", got)
	}
}

// TestOverviewSelectsRaceEviction runs overview selects on three tables
// from several goroutines through a one-model store while another reclaims
// every model but the hottest and every retained memo: every load, handoff,
// eviction and memo drop races a select. Every overview must equal the one
// chosen serially beforehand. Run under -race.
func TestOverviewSelectsRaceEviction(t *testing.T) {
	g := memgov.New(0)
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: 1, Governor: g}), testOptions())
	names := []string{"x", "y", "z"}
	specs := []core.ExploreSpec{{K: 4, L: 2}, {K: 3, L: 3, Targets: []string{"cat"}}, {K: 4, L: 2, Scale: scaleForce()}}
	want := map[string]string{}
	for i, name := range names {
		if _, err := svc.AddTable(name, testTable(name, 200, int64(i+5)), nil, Unsharded, false); err != nil {
			t.Fatal(err)
		}
		for j, spec := range specs {
			want[fmt.Sprint(name, j)] = mustServeSelect(t, svc, name, spec)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				svc.Store().reclaimModels(math.MaxInt64)
			}
		}
	}()
	var selects sync.WaitGroup
	for w := range 4 {
		selects.Add(1)
		go func() {
			defer selects.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 40 {
				name, j := names[rng.Intn(len(names))], rng.Intn(len(specs))
				st, err := svc.Select(name, specs[j])
				if err != nil {
					t.Error(err)
					return
				}
				if got := subTableFingerprint(st); got != want[fmt.Sprint(name, j)] {
					t.Errorf("%s shape %d: got %s\nwant %s", name, j, got, want[fmt.Sprint(name, j)])
					return
				}
			}
		}()
	}
	selects.Wait()
	close(stop)
	wg.Wait()
	if svc.Store().Stats().Evictions == 0 {
		t.Fatal("no select evicted a model")
	}
}

func mustServeSelect(t *testing.T, svc *Service, name string, spec core.ExploreSpec) string {
	t.Helper()
	st, err := svc.Select(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	return subTableFingerprint(st)
}
