// Tests for the scaled (large-table) selection path: gate equivalence below
// the threshold, determinism above it, persistence of the scale options
// through the model codec, and the CI smoke that pins interactive selection
// on a 100k-row table.
package core_test

import (
	"bytes"
	"testing"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/word2vec"
)

// forceScale activates the scaled path on any input, with a budget small
// enough that sampling actually happens on test-sized tables.
func forceScale() *core.ScaleOptions {
	return &core.ScaleOptions{Threshold: 1, SampleBudget: 300, BatchSize: 128, MaxIter: 50}
}

// TestScaledBelowThresholdIsExact pins the gate: with the scaled mode
// configured but the table below its threshold, the selection must be
// bit-for-bit the exact path (the facade-level golden tests pin the same
// guarantee against checked-in fingerprints).
func TestScaledBelowThresholdIsExact(t *testing.T) {
	m := deterministicModel(t)
	exact, err := m.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := m.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: &core.ScaleOptions{
		Threshold: 1_000_000, SampleBudget: 64, BatchSize: 32, MaxIter: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(exact) != fingerprint(gated) {
		t.Fatalf("below-threshold selection diverged from the exact path:\n got %s\nwant %s",
			fingerprint(gated), fingerprint(exact))
	}
}

func TestScaledSelectDeterministic(t *testing.T) {
	m := deterministicModel(t)
	first, err := m.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.SourceRows) != 8 {
		t.Fatalf("scaled Select returned %d rows, want 8", len(first.SourceRows))
	}
	for i := 0; i < 3; i++ {
		st, err := m.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(st) != fingerprint(first) {
			t.Fatalf("scaled Select run %d diverged:\n got %s\nwant %s", i, fingerprint(st), fingerprint(first))
		}
	}
}

// TestScaledSelectQuerySubset drives the scaled path through a query:
// representatives must come from the query result, and repeat calls must
// agree.
func TestScaledSelectQuerySubset(t *testing.T) {
	m := deterministicModel(t)
	q := &query.Query{Limit: 500}
	first, err := m.SelectExplore(core.ExploreSpec{Query: q, K: 6, L: 5, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first.SourceRows {
		if r < 0 || r >= 500 {
			t.Fatalf("scaled query select picked row %d outside the 500-row query result", r)
		}
	}
	again, err := m.SelectExplore(core.ExploreSpec{Query: q, K: 6, L: 5, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(first) != fingerprint(again) {
		t.Fatal("scaled query select is not deterministic")
	}
}

// TestScaleOptionsSurviveModelRoundTrip pins the v4 codec section: a model
// pre-processed with the scaled mode configured keeps both the options and
// the selections after save/load.
func TestScaleOptionsSurviveModelRoundTrip(t *testing.T) {
	ds, err := datagen.ByName("FL", 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 5},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 5},
		Embedding:   word2vec.Options{Dim: 16, Epochs: 2, Seed: 5},
		ClusterSeed: 11,
		Scale:       core.ScaleOptions{Threshold: 100, SampleBudget: 300, BatchSize: 128, MaxIter: 50},
	}
	m, err := core.Preprocess(ds.T, opt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.Select(8, 7, nil) // model-default scale: 900 >= 100 activates
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := modelio.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := modelio.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Opt.Scale != opt.Scale {
		t.Fatalf("scale options did not round-trip: got %+v want %+v", loaded.Opt.Scale, opt.Scale)
	}
	restored, err := loaded.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(direct) != fingerprint(restored) {
		t.Fatalf("restored scaled model selects differently:\n got %s\nwant %s",
			fingerprint(restored), fingerprint(direct))
	}
}

// TestLargeSelectSmoke is the CI large-selection smoke: preprocess a
// 100k-row generated table once (setup, unbounded), then require a scaled
// full-table Select to finish within a generous wall-clock bound — 30s
// covers the 1-vCPU CI runner with an order of magnitude to spare while
// still catching an accidental O(rows·k·iters) regression, which would blow
// past it.
func TestLargeSelectSmoke(t *testing.T) {
	ds := datagen.Generic(100_000, 10, 6, 3)
	opt := core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 3},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 3},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 3},
		ClusterSeed: 3,
	}
	m, err := core.Preprocess(ds.T, opt)
	if err != nil {
		t.Fatal(err)
	}
	scale := &core.ScaleOptions{Threshold: 50_000}
	start := time.Now()
	st, err := m.SelectExplore(core.ExploreSpec{K: 10, L: 8, Scale: scale})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SourceRows) != 10 {
		t.Fatalf("scaled 100k Select returned %d rows, want 10", len(st.SourceRows))
	}
	if elapsed > 30*time.Second {
		t.Fatalf("scaled 100k Select took %s, over the 30s smoke bound", elapsed)
	}
	t.Logf("scaled 100k Select: %s", elapsed)
}
