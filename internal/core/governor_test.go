package core

import (
	"sync"
	"testing"

	"subtab/internal/memgov"
)

// TestSelectRacesReleaseVectorCache is the regression test for the
// resettable-sync.Once tear: ReleaseVectorCache used to reassign
// m.fullVecsOnce while a concurrent selection could be inside Do, so an
// eviction racing a cache build could publish a half-built matrix or panic.
// Run under -race: exact-path selects (which build and read the full-table
// vector cache), scaled selects (which populate the sample cache and gather
// from a warm cache), appends-style cache reads, and evictions all hammer
// the same model; every select must keep returning the byte-identical
// sub-table.
func TestSelectRacesReleaseVectorCache(t *testing.T) {
	tab := ruleTable(t, 300, 3)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	scale := &ScaleOptions{Threshold: 1, SampleBudget: 120}
	baseScaled, err := m.SelectExplore(ExploreSpec{K: 5, L: 3, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}

	iters := 60
	if testing.Short() {
		iters = 25
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st, err := m.Select(5, 3, nil)
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				for j, r := range st.SourceRows {
					if r != base.SourceRows[j] {
						t.Errorf("select rows diverged under eviction race: %v vs %v", st.SourceRows, base.SourceRows)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st, err := m.SelectExplore(ExploreSpec{K: 5, L: 3, Scale: scale})
				if err != nil {
					t.Errorf("scaled select: %v", err)
					return
				}
				for j, r := range st.SourceRows {
					if r != baseScaled.SourceRows[j] {
						t.Errorf("scaled select rows diverged under eviction race: %v vs %v", st.SourceRows, baseScaled.SourceRows)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*8; i++ {
			m.ReleaseVectorCache()
		}
	}()
	wg.Wait()
}

// TestGovernorCacheAccounting pins the settlement protocol: the governed
// classes track the caches' true residency through warm-up, eviction, and
// the select-vs-evict race, and always end at zero after a final release.
func TestGovernorCacheAccounting(t *testing.T) {
	tab := ruleTable(t, 300, 4)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := memgov.New(0) // unlimited: ledger only
	m.SetGovernor(g)

	if _, err := m.Select(5, 3, nil); err != nil {
		t.Fatal(err)
	}
	wantVec := int64(tab.NumRows()) * int64(m.Emb.Dim()) * 4
	if got := g.ClassBytes(memgov.ClassVectorCache); got != wantVec {
		t.Fatalf("vector-cache class = %d after warm select, want %d", got, wantVec)
	}

	scale := &ScaleOptions{Threshold: 1, SampleBudget: 120}
	if _, err := m.SelectExplore(ExploreSpec{K: 5, L: 3, Scale: scale}); err != nil {
		t.Fatal(err)
	}
	if got := g.ClassBytes(memgov.ClassSampleCache); got <= 0 {
		t.Fatalf("sample-cache class = %d after scaled select, want > 0", got)
	}

	m.ReleaseVectorCache()
	if v, s := g.ClassBytes(memgov.ClassVectorCache), g.ClassBytes(memgov.ClassSampleCache); v != 0 || s != 0 {
		t.Fatalf("classes = %d/%d after release, want 0/0", v, s)
	}

	// Race warm-ups against releases; whatever interleaving happened, a
	// final release must settle both classes back to exactly zero (the
	// generation reconciliation makes a release racing an in-flight grant
	// revoke it).
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := m.Select(5, 3, nil); err != nil {
					t.Errorf("select: %v", err)
					return
				}
				if _, err := m.SelectExplore(ExploreSpec{K: 5, L: 3, Scale: scale}); err != nil {
					t.Errorf("scaled select: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.ReleaseVectorCache()
		}
	}()
	wg.Wait()
	m.ReleaseVectorCache()
	if v, s := g.ClassBytes(memgov.ClassVectorCache), g.ClassBytes(memgov.ClassSampleCache); v != 0 || s != 0 {
		t.Fatalf("classes = %d/%d after racing release, want 0/0", v, s)
	}
	if used := g.Used(); used != 0 {
		t.Fatalf("governor used = %d after all releases, want 0", used)
	}
	if g.Peak() < wantVec {
		t.Fatalf("peak = %d never reached the warm cache size %d", g.Peak(), wantVec)
	}

	// SetGovernor on an already-warm model settles the existing residency.
	m2, err := Preprocess(ruleTable(t, 200, 5), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Select(4, 3, nil); err != nil {
		t.Fatal(err)
	}
	g2 := memgov.New(0)
	m2.SetGovernor(g2)
	want2 := int64(200) * int64(m2.Emb.Dim()) * 4
	if got := g2.ClassBytes(memgov.ClassVectorCache); got != want2 {
		t.Fatalf("vector-cache class = %d after SetGovernor on warm model, want %d", got, want2)
	}
}

// TestResidentBytesEstimate sanity-checks the store-weighting estimate:
// positive for a resident model, dominated by its real components, and
// stable across calls (it must be safe and cheap under the store mutex).
func TestResidentBytesEstimate(t *testing.T) {
	tab := ruleTable(t, 300, 6)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := m.ResidentBytes()
	if b <= 0 {
		t.Fatalf("ResidentBytes = %d, want > 0", b)
	}
	// Cells (300 rows × 4 numeric × 8B) + codes (300×5×2B) + embedding are
	// all in; the estimate must at least cover the numeric cells alone.
	if b < 300*4*8 {
		t.Fatalf("ResidentBytes = %d, implausibly small", b)
	}
	if again := m.ResidentBytes(); again != b {
		t.Fatalf("ResidentBytes unstable: %d then %d", b, again)
	}
	// The governed caches are excluded: warming them must not change it.
	if _, err := m.Select(5, 3, nil); err != nil {
		t.Fatal(err)
	}
	if warm := m.ResidentBytes(); warm != b {
		t.Fatalf("ResidentBytes changed after cache warm-up: %d -> %d (caches are separately classed)", b, warm)
	}
	if m.CacheBytes() <= 0 {
		t.Fatal("CacheBytes = 0 after warm select")
	}
}
