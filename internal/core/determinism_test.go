// Determinism regression tests for the parallel selection pipeline: with a
// fixed ClusterSeed (and single-worker embedding training), Select must be a
// pure function of the model — across repeated calls, across concurrent
// calls, and across a modelio save/load round-trip. The parallel paths
// (tuple-vector fill, k-means assignment, affinity fill, Jaccard diversity
// scan) only ever write disjoint slots and reduce in fixed order, so any
// scheduling-dependent divergence is a bug this test exists to catch.
package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/word2vec"
)

func deterministicModel(t *testing.T) *core.Model {
	t.Helper()
	ds, err := datagen.ByName("FL", 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 5},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 5},
		Embedding:   word2vec.Options{Dim: 16, Epochs: 2, Seed: 5},
		ClusterSeed: 11,
	}
	m, err := core.Preprocess(ds.T, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fingerprint renders every observable part of a selection.
func fingerprint(st *core.SubTable) string {
	return fmt.Sprintf("%v|%v|%v|%s", st.SourceRows, st.ColIdx, st.Cols, st.View.Render(nil))
}

func TestSelectByteIdenticalAcrossCalls(t *testing.T) {
	m := deterministicModel(t)
	first, err := m.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(first)
	for i := 0; i < 3; i++ {
		st, err := m.Select(8, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(st); got != want {
			t.Fatalf("Select run %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	q := &query.Query{Limit: 400}
	qFirst, err := m.SelectQuery(q, 6, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	qWant := fingerprint(qFirst)
	for i := 0; i < 3; i++ {
		st, err := m.SelectQuery(q, 6, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(st); got != qWant {
			t.Fatalf("SelectQuery run %d diverged", i)
		}
	}
}

func TestSelectByteIdenticalUnderConcurrency(t *testing.T) {
	m := deterministicModel(t)
	base, err := m.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(base)
	const goroutines = 8
	got := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := m.Select(8, 7, nil)
			if err != nil {
				errs[g] = err
				return
			}
			got[g] = fingerprint(st)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != want {
			t.Fatalf("concurrent Select %d diverged from serial result", g)
		}
	}
}

func TestSelectByteIdenticalAfterModelRoundTrip(t *testing.T) {
	m := deterministicModel(t)
	direct, err := m.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := modelio.Save(&buf, m, modelio.Resident); err != nil {
		t.Fatal(err)
	}
	loaded, err := modelio.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(direct) != fingerprint(restored) {
		t.Fatalf("restored model selects differently:\n got %s\nwant %s",
			fingerprint(restored), fingerprint(direct))
	}
}
