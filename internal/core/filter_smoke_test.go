// Predicate-scoped CI smoke: the streaming filter path must answer a
// predicate-scoped scaled select on a fully-paged 1M-row table — codes AND
// raw cells store-backed — without materializing a resident table. Reuses
// the out-of-core smoke's CSV (SUBTAB_OOC_SMOKE_CSV) and RSS plumbing;
// skips without the env var.
package core_test

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/query"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

func TestPredicateScopedSmoke(t *testing.T) {
	csvPath := os.Getenv("SUBTAB_OOC_SMOKE_CSV")
	if csvPath == "" {
		t.Skip("set SUBTAB_OOC_SMOKE_CSV to a generated CSV (see the CI out-of-core smoke step)")
	}
	tbl, err := table.ReadCSVFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 3},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 3},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 3},
		ClusterSeed: 3,
	}
	m, err := core.Preprocess(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := m.PageOut([]string{filepath.Join(dir, "smoke.codes")}, []string{filepath.Join(dir, "smoke.cols")}, false, 0); err != nil {
		t.Fatal(err)
	}
	if !m.OutOfCore() {
		t.Fatal("smoke model not fully paged")
	}

	// The bound is deliberately not cut-aligned: the filter must resolve the
	// boundary bin through batched colstore gathers, not from codes alone.
	q := &query.Query{Where: []query.Predicate{{Col: "DISTANCE", Op: query.Geq, Num: 817.5}}}
	scale := &core.ScaleOptions{Threshold: 50_000}

	// Heap watermark before the select: a materialized 1M-row table copy
	// (the escape hatch this path must never take) costs hundreds of MiB and
	// would blow the delta bound immediately.
	debug.FreeOSMemory()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	sub, err := m.SelectExplore(core.ExploreSpec{Query: q, K: 10, L: 8, Scale: scale})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.SourceRows) == 0 || len(sub.SourceRows) > 10 {
		t.Fatalf("predicate-scoped select returned %d rows", len(sub.SourceRows))
	}
	if elapsed > smokeSelectBound {
		t.Fatalf("predicate-scoped select took %s, over the %s smoke bound", elapsed, smokeSelectBound)
	}
	t.Logf("predicate-scoped scaled select: %s, %d rows", elapsed, len(sub.SourceRows))

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const selectHeapBound = 128 << 20
	if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > selectHeapBound {
		t.Fatalf("select grew the live heap by %d MiB (bound %d MiB) — a resident table copy crept into the streaming path",
			delta>>20, int64(selectHeapBound)>>20)
	}
	if !m.OutOfCore() {
		t.Fatal("select re-materialized inline state")
	}

	// Deterministic repeat, byte for byte.
	again, err := m.SelectExplore(core.ExploreSpec{Query: q, K: 10, L: 8, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(again) != fingerprint(sub) {
		t.Fatal("repeated predicate-scoped select diverged")
	}

	// Same RSS discipline as the unfiltered smoke.
	debug.FreeOSMemory()
	if steady, ok := rssBytes(t, "VmRSS:"); ok {
		t.Logf("steady-state RSS: %d MiB (bound %d MiB)", steady>>20, int64(smokeSteadyRSSBound)>>20)
		if steady > smokeSteadyRSSBound {
			t.Fatalf("steady-state RSS %d MiB exceeds the %d MiB bound", steady>>20, int64(smokeSteadyRSSBound)>>20)
		}
	}
	if peak, ok := rssBytes(t, "VmHWM:"); ok {
		t.Logf("peak RSS: %d MiB (bound %d MiB)", peak>>20, int64(smokePeakRSSBound)>>20)
		if peak > smokePeakRSSBound {
			t.Fatalf("peak RSS %d MiB exceeds the %d MiB bound", peak>>20, int64(smokePeakRSSBound)>>20)
		}
	}
	runtime.KeepAlive(m)
}
