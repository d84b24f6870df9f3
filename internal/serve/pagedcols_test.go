// Regression tests for the two serving-layer memory/staleness bugs fixed
// alongside the paged column store: the per-model full-vector cache must not
// outlive its model's store residency, and a coordinator's per-(budget,cols)
// sample cache must not survive a table replacement.
package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"subtab/internal/core"
)

// TestEvictionReleasesVectorCache pins the unbounded-growth fix: once the
// LRU evicts a model, its O(rows×dim) full-table vector cache must become
// collectible even while a caller still references the model itself. Before
// the ReleaseVectorCache hook in insertLocked, a multi-tenant server that
// cycled tables through a small LRU retained every evicted tenant's matrix
// for as long as any handler held the model.
func TestEvictionReleasesVectorCache(t *testing.T) {
	const rows = 40000
	store := NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: 1})
	svc := NewService(store, testOptions())
	m, err := svc.AddTable("a", testTable("a", rows, 7), nil, Unsharded, false)
	if err != nil {
		t.Fatal(err)
	}
	// An exact full-column select warms the rows×dim float32 matrix.
	if _, err := m.SelectExplore(core.ExploreSpec{K: 6, L: 3}); err != nil {
		t.Fatal(err)
	}
	matrix := int64(rows) * int64(m.Emb.Dim()) * 4

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Inserting a second model into the MaxModels=1 store evicts "a".
	if _, err := svc.AddTable("b", testTable("b", 64, 9), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	freed := int64(before.HeapAlloc) - int64(after.HeapAlloc)
	if freed < matrix/2 {
		t.Errorf("eviction freed %d bytes of live heap, want at least %d (half the %d-byte vector cache): the evicted model's cache is still retained",
			freed, matrix/2, matrix)
	}
	// The model reference must stay live past the measurements, so the drop
	// above can only come from the released caches, not the model itself.
	if m.T.NumRows() != rows {
		t.Fatalf("model mutated during eviction: %d rows", m.T.NumRows())
	}
}

// TestShardSampleCacheInvalidatedOnReplace pins the staleness fix: a
// coordinator's cross-request sample cache is keyed to the store's
// replacement generation, so replacing a sharded table forces the next
// scaled select to re-scatter to the workers instead of serving candidate
// rows gathered against the predecessor table.
func TestShardSampleCacheInvalidatedOnReplace(t *testing.T) {
	const name = "t"
	coordDir, workerDir := splitCacheDir(t, name, 2500, 3, []int{1, 2})

	worker := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), testOptions())
	var sampleHits atomic.Int64
	base := NewHandler(worker, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/sample") {
			sampleHits.Add(1)
		}
		base.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	var coordStore *Store
	coordStore = NewStore(StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		PrepareModel: func(n string, m *core.Model) error {
			if m.ShardSource() == nil || m.ShardSource().Complete() {
				return nil
			}
			sampler, err := NewShardSampler(n, m, ShardPeersOptions{
				Peers:      []string{srv.URL},
				Generation: func() uint64 { return coordStore.Generation(n) },
			})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	})
	coord := NewService(coordStore, testOptions())

	want, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	scatters := sampleHits.Load()
	if scatters == 0 {
		t.Fatal("first scaled select did not scatter to the worker")
	}

	// A repeat select is served from the coordinator's sample cache.
	if _, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()}); err != nil {
		t.Fatal(err)
	}
	if got := sampleHits.Load(); got != scatters {
		t.Fatalf("repeat select re-scattered (%d → %d sample requests); cache lost", scatters, got)
	}

	// Replace the table (Store.Put bumps the generation). The held model and
	// its sampler keep serving — exactly the window where a stale cached
	// sample used to leak through.
	m, err := coord.Model(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := coordStore.put(name, m); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	if sampleHits.Load() <= scatters {
		t.Error("select after table replacement served the generation-stale cached sample instead of re-scattering")
	}
	if subTableFingerprint(got) != subTableFingerprint(want) {
		t.Error("re-scattered select diverged from the original (same underlying shards)")
	}
}
