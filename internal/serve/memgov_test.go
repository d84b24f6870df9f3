// Governed serving-layer tests: the store's byte-weighted LRU, request
// admission, and the coordinator sample cache must keep the governor's
// ledger exactly consistent with what is actually resident, across every
// lifecycle edge (evict, replace, remove, reload, generation
// invalidation).
package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/query"
)

// governedModelBytes sums the store's accounted entry weights under its
// mutex — what ClassModels must equal at every quiescent point.
func governedModelBytes(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b int64
	for _, el := range s.entries {
		b += el.Value.(*storeEntry).bytes
	}
	return b
}

// checkModelClass asserts the governor's ClassModels ledger matches the
// store's resident entries exactly.
func checkModelClass(t *testing.T, g *memgov.Governor, s *Store, when string) {
	t.Helper()
	want := governedModelBytes(s)
	if got := g.ClassBytes(memgov.ClassModels); got != want {
		t.Fatalf("%s: ClassModels = %d, store entries hold %d", when, got, want)
	}
}

// TestGovernedStoreEvictionAccounting walks a governed disk-backed store
// through Put / LRU-evict / disk-reload / Update-replace / Remove and pins
// that Stats().Evictions counts every eviction and the ClassModels ledger
// tracks exactly the resident entries at each step — no residue from
// evicted or replaced models, nothing double-counted on reload.
func TestGovernedStoreEvictionAccounting(t *testing.T) {
	g := memgov.New(0) // unlimited: pure ledger, evictions come from MaxModels
	s := NewStore(StoreOptions{MaxModels: 2, Dir: t.TempDir(), Governor: g})

	for _, name := range []string{"a", "b", "c"} {
		if err := s.put(name, buildModel(t, name, 150)); err != nil {
			t.Fatal(err)
		}
		checkModelClass(t, g, s, "after Put "+name)
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d after third Put, want 1", got)
	}

	// Warm the evicted model's twin caches on a resident model, then force
	// its eviction: the ledger must drop both its ClassModels weight and its
	// cache classes (ReleaseVectorCache on the eviction path settles them).
	mb, err := s.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Select(5, 3, nil); err != nil {
		t.Fatal(err)
	}
	if g.ClassBytes(memgov.ClassVectorCache) <= 0 {
		t.Fatal("warm select did not settle vector-cache bytes")
	}
	if _, err := s.Get("c"); err != nil { // touch c so warm b is the cold end
		t.Fatal(err)
	}
	if _, err := s.Get("a"); err != nil { // reloads a, evicts b (LRU)
		t.Fatal(err)
	}
	if got := s.Stats().Evictions; got != 2 {
		t.Fatalf("evictions = %d after reload, want 2", got)
	}
	checkModelClass(t, g, s, "after evicting the warm model")
	if got := g.ClassBytes(memgov.ClassVectorCache); got != 0 {
		t.Fatalf("vector-cache class = %d after evicting its model, want 0", got)
	}

	// Update replaces the model in place: the old weight leaves the ledger,
	// the successor's enters, evictions do not change.
	evBefore := s.Stats().Evictions
	if _, err := s.Update("a", func(cur *core.Model) (*core.Model, error) {
		return buildModel(t, "a", 220), nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Evictions; got != evBefore {
		t.Fatalf("evictions moved %d -> %d on Update, want unchanged", evBefore, got)
	}
	checkModelClass(t, g, s, "after Update replace")

	// A no-op Update (fn returns the current model) must not re-account.
	if _, err := s.Update("a", func(cur *core.Model) (*core.Model, error) {
		return cur, nil
	}); err != nil {
		t.Fatal(err)
	}
	checkModelClass(t, g, s, "after no-op Update")

	for _, name := range s.Names() {
		s.Remove(name)
		checkModelClass(t, g, s, "after Remove "+name)
	}
	if got := g.ClassBytes(memgov.ClassModels); got != 0 {
		t.Fatalf("ClassModels = %d after removing every table, want 0", got)
	}
	if used := g.Used(); used != 0 {
		t.Fatalf("governor used = %d after removing every table, want 0 (some class leaked)", used)
	}
	if g.Peak() <= 0 {
		t.Fatal("governor never recorded a peak")
	}
}

// TestGovernedStoreBudgetEviction pins the byte-weighted LRU: inserts that
// grow ClassModels past the budget trigger the store's cold-end evictor
// (registered under its own label so model-insert Grows reach it), and the
// ledger never strands bytes for the shed entries.
func TestGovernedStoreBudgetEviction(t *testing.T) {
	// Weigh a model as the store holds it: mapped from its file.
	probes := NewStore(StoreOptions{Dir: t.TempDir()})
	if err := probes.put("probe", buildModel(t, "probe", 150)); err != nil {
		t.Fatal(err)
	}
	probe, err := probes.Get("probe")
	if err != nil {
		t.Fatal(err)
	}
	perModel := probe.ResidentBytes()
	// Room for ~2 models: the third insert must shed the coldest.
	g := memgov.New(perModel*2 + perModel/2)
	s := NewStore(StoreOptions{MaxModels: 64, Dir: t.TempDir(), Governor: g})

	for _, name := range []string{"a", "b", "c", "d"} {
		if err := s.put(name, buildModel(t, name, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Evictions; got == 0 {
		t.Fatal("no evictions despite inserts far past the byte budget")
	}
	if got := s.MemoryLen(); got >= 4 {
		t.Fatalf("memory holds %d models, want fewer than the 4 inserted", got)
	}
	checkModelClass(t, g, s, "after budget-driven eviction")
	// The shed tables are still served — from disk, not a rebuild.
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := s.Get(name); err != nil {
			t.Fatalf("get %q after eviction: %v", name, err)
		}
	}
	if st := s.Stats(); st.Builds != 0 || st.DiskLoads == 0 {
		t.Fatalf("stats = %+v, want disk reloads and no rebuilds", st)
	}
	checkModelClass(t, g, s, "after reloading shed tables")
}

// TestServiceAdmission drives the two load-shedding refusals through
// Service.Select: a working set beyond the budget is refused with
// ErrOverloaded wrapping *memgov.ErrOverBudget (the Retry-After source),
// and the per-table concurrency limit sheds with ErrOverloaded alone.
func TestServiceAdmission(t *testing.T) {
	g := memgov.New(1) // any select's estimate exceeds one byte
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), Governor: g}), testOptions())
	svc.SetAdmission(g, 0)
	if _, err := svc.AddTable("t", testTable("t", 300, 5), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Select("t", core.ExploreSpec{K: 5, L: 3})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var ob *memgov.ErrOverBudget
	if !errors.As(err, &ob) {
		t.Fatalf("err = %v, want *memgov.ErrOverBudget in the chain", err)
	}
	if ob.RetryAfter <= 0 {
		t.Fatal("over-budget refusal carries no Retry-After hint")
	}
	if got := g.ClassBytes(memgov.ClassRequests); got != 0 {
		t.Fatalf("ClassRequests = %d after refusal, want 0 (refusals must not reserve)", got)
	}

	// Raise the budget: the same request is admitted, runs, and releases its
	// reservation on the way out.
	g2 := memgov.New(1 << 30)
	svc.SetAdmission(g2, 1)
	if _, err := svc.Select("t", core.ExploreSpec{K: 5, L: 3}); err != nil {
		t.Fatal(err)
	}
	if got := g2.ClassBytes(memgov.ClassRequests); got != 0 {
		t.Fatalf("ClassRequests = %d after a completed select, want 0", got)
	}

	// Concurrency shed: hold the table's single slot, then request again.
	release, ok := svc.limiter.Acquire("t")
	if !ok {
		t.Fatal("first acquire on an idle table failed")
	}
	_, err = svc.Select("t", core.ExploreSpec{K: 5, L: 3})
	release()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v at the concurrency limit, want ErrOverloaded", err)
	}
	if got := svc.LimiterRejections(); got != 1 {
		t.Fatalf("limiter rejections = %d, want 1", got)
	}
	if _, err := svc.Select("t", core.ExploreSpec{K: 5, L: 3}); err != nil {
		t.Fatalf("select after the slot freed: %v", err)
	}
}

// TestPagedGroupByAdmission drives a group-by on a paged table through
// HTTP admission. Its reservation carries the resident copy of the cells
// query.Apply runs over, so under a budget that admits the same table's
// streaming select but not that copy it answers the 429 envelope with a
// Retry-After header; under a larger budget it runs. Either way the
// requests class settles back to zero.
func TestPagedGroupByAdmission(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	if _, err := svc.AddTable("t", testTable("t", 2000, 5), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	m, err := svc.Model("t")
	if err != nil {
		t.Fatal(err)
	}
	groupBy := &query.Query{GroupBy: []string{"cat", "grp"}, Aggs: []query.Aggregate{{Func: query.Count}}}
	streaming := &query.Query{Select: []string{"cat", "grp"}}
	need, err := m.ReserveBytes(core.ExploreSpec{Query: groupBy, K: 4, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	light, err := m.ReserveBytes(core.ExploreSpec{Query: streaming, K: 4, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if light >= need {
		t.Fatalf("the group-by reserves %d bytes, no more than the streaming select's %d", need, light)
	}
	g := memgov.New(need - 1)
	svc.SetAdmission(g, 0)
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	url := srv.URL + "/v1/tables/t/select"
	body := func(q map[string]any) map[string]any { return map[string]any{"k": 4, "l": 2, "query": q} }
	groupByBody := body(map[string]any{"group_by": []string{"cat", "grp"}, "aggs": []map[string]any{{"func": "count"}}})
	doJSON(t, "POST", url, body(map[string]any{"select": []string{"cat", "grp"}}), http.StatusOK, nil)
	if _, hdr := wantEnvelope(t, "POST", url, groupByBody, http.StatusTooManyRequests, "overloaded"); hdr.Get("Retry-After") == "" {
		t.Fatal("the 429 carries no Retry-After header")
	}
	if got := g.ClassBytes(memgov.ClassRequests); got != 0 {
		t.Fatalf("ClassRequests = %d after the refusal, want 0", got)
	}
	g2 := memgov.New(need)
	svc.SetAdmission(g2, 0)
	var resp subTableResponse
	doJSON(t, "POST", url, groupByBody, http.StatusOK, &resp)
	if len(resp.SourceRows) != 4 || len(resp.Cols) != 2 {
		t.Fatalf("admitted group-by answered %d rows x %v", len(resp.SourceRows), resp.Cols)
	}
	if got := g2.ClassBytes(memgov.ClassRequests); got != 0 {
		t.Fatalf("ClassRequests = %d after the group-by, want 0", got)
	}
}

// TestCoordCacheGovernorAccounting pins the coordinator sample cache's
// governed lifecycle, including PR 8's generation-keyed invalidation: fills
// settle bytes under ClassCoordCache, a replaced table's stale entry is
// both discarded and un-accounted on the next lookup, and removing the
// table settles the class to zero through the eviction release hook.
func TestCoordCacheGovernorAccounting(t *testing.T) {
	const name = "t"
	coordDir, workerDir := splitCacheDir(t, name, 1200, 3, []int{1, 2})

	worker := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), testOptions())
	if _, err := worker.Model(name); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(worker, nil))
	t.Cleanup(srv.Close)

	g := memgov.New(0)
	gen := uint64(0)
	var store *Store
	store = NewStore(StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		Governor:           g,
		PrepareModel: func(n string, m *core.Model) error {
			if m.ShardSource() == nil || m.ShardSource().Complete() {
				return nil
			}
			sampler, err := NewShardSampler(n, m, ShardPeersOptions{
				Peers:      []string{srv.URL},
				Governor:   g,
				Generation: func() uint64 { return gen },
			})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	})
	coord := NewService(store, testOptions())

	want, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	filled := g.ClassBytes(memgov.ClassCoordCache)
	if filled <= 0 {
		t.Fatalf("ClassCoordCache = %d after a scatter, want > 0", filled)
	}

	// Cache hit: same selection, no additional coord bytes.
	if _, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()}); err != nil {
		t.Fatal(err)
	}
	if got := g.ClassBytes(memgov.ClassCoordCache); got != filled {
		t.Fatalf("ClassCoordCache moved %d -> %d on a cache hit", filled, got)
	}

	// Generation bump (the table was "replaced"): the next lookup discards
	// the stale entry, un-accounts it, and re-fills under the new tag —
	// ending with the same byte weight, never the sum of both.
	gen++
	again, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	if subTableFingerprint(again) != subTableFingerprint(want) {
		t.Fatal("re-scatter after generation bump diverged")
	}
	if got := g.ClassBytes(memgov.ClassCoordCache); got != filled {
		t.Fatalf("ClassCoordCache = %d after invalidation refill, want %d (stale entry must be un-accounted)", got, filled)
	}

	// Removing the table releases the model's caches — including, through
	// core.CacheReleaser, the coordinator's sample cache bytes.
	coord.RemoveTable(name)
	if got := g.ClassBytes(memgov.ClassCoordCache); got != 0 {
		t.Fatalf("ClassCoordCache = %d after RemoveTable, want 0", got)
	}
	if got := g.ClassBytes(memgov.ClassModels); got != 0 {
		t.Fatalf("ClassModels = %d after RemoveTable, want 0", got)
	}
}
