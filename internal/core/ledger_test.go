package core

import (
	"fmt"
	"runtime"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/memgov"
	"subtab/internal/rules"
	"subtab/internal/word2vec"
)

// The governor's ledger, class by class, against the heap: filling a cache
// must grow the ledger by what it grows the live heap, within chargeSlack.

// chargeSlack is the tolerance of a class's charge against the measured
// heap.
const chargeSlack = 0.10

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkCharge compares a class's ledger delta with the heap delta.
func checkCharge(t *testing.T, what string, ledger, heap int64) {
	t.Helper()
	t.Logf("%s: ledger %d B, heap %d B (%+.1f%%)", what, ledger, heap, 100*float64(ledger-heap)/float64(heap))
	if d := float64(ledger-heap) / float64(heap); d < -chargeSlack || d > chargeSlack {
		t.Errorf("%s: ledger grew %d B, the live heap %d B: off by %+.1f%%, more than ±%.0f%%", what, ledger, heap, 100*d, 100*chargeSlack)
	}
}

// ledgerTestModel pre-processes an FL table of n rows with a light
// embedding: the charges measured here do not depend on its quality.
func ledgerTestModel(t *testing.T, n int) *Model {
	t.Helper()
	ds, err := datagen.ByName("FL", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Preprocess(ds.T, Options{
		Bins:        binning.Options{MaxBins: 8, Strategy: binning.KDEValleys, Seed: 3},
		Corpus:      corpus.Options{MaxSentences: 2000, TupleSentences: true, Seed: 3},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 3},
		ClusterSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRulesChargeMatchesHeap mines rules on FL tables of two sizes, with
// and without target columns and with every split, and holds each
// rules-cache charge to the live heap the mined rules keep.
func TestRulesChargeMatchesHeap(t *testing.T) {
	for _, n := range []int{3000, 9000} {
		m := ledgerTestModel(t, n)
		g := memgov.New(0)
		m.SetGovernor(g)
		for _, opt := range []rules.Options{
			{},
			{TargetCols: []string{"CANCELLED"}, MaxRules: 500},
			{AllSplits: true, MinSupport: 0.2},
		} {
			m.ReleaseVectorCache()
			h0, l0 := liveHeap(), g.ClassBytes(memgov.ClassRulesCache)
			rs, err := m.Rules(opt)
			if err != nil {
				t.Fatal(err)
			}
			h1, l1 := liveHeap(), g.ClassBytes(memgov.ClassRulesCache)
			checkCharge(t, fmt.Sprintf("%d rows, %d rules %+v", n, len(rs), opt), l1-l0, h1-h0)
			runtime.KeepAlive(rs)
		}
	}
}

// TestMemoChargeMatchesHeap fills the overview memos of many models —
// one to four display shapes each, with and without target columns — and
// holds the overview-cache charge to the live heap the memos keep. Each
// model ran the same selects once before, so what is measured is the memo
// and not the model's lazily built state.
func TestMemoChargeMatchesHeap(t *testing.T) {
	base := ledgerTestModel(t, 400)
	shapes := []ExploreSpec{
		{K: 4, L: 3},
		{K: 7, L: 2, Targets: []string{"CANCELLED"}},
		{K: 10, L: 5, Targets: []string{"AIRLINE", "CANCELLED", "DISTANCE"}},
		{K: 3, L: 4, Fairness: &FairnessOptions{GroupCol: "CANCELLED", MinPerGroup: 1}},
	}
	g := memgov.New(0)
	models := make([]*Model, 600)
	for i := range models {
		m, err := Restore(base.T, base.B, base.Emb, base.Opt, base.AffinityData())
		if err != nil {
			t.Fatal(err)
		}
		m.SetGovernor(g)
		models[i] = m
	}
	fill := func() {
		for i, m := range models {
			for _, spec := range shapes[:1+i%len(shapes)] {
				mustSelect(t, m, spec)
			}
			m.ReleaseSparingOverviews()
		}
	}
	fill()
	for _, m := range models {
		m.ReleaseVectorCache()
	}
	h0, l0 := liveHeap(), g.ClassBytes(memgov.ClassOverviewCache)
	fill()
	h1, l1 := liveHeap(), g.ClassBytes(memgov.ClassOverviewCache)
	checkCharge(t, fmt.Sprintf("%d models' overview memos", len(models)), l1-l0, h1-h0)
	runtime.KeepAlive(models)
}
