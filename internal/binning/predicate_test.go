// Tests for the code-level predicate evaluator: compiled filters must
// match the cell-level ground truth (query.Predicate over the resident
// table) exactly, over the inline source and over a block-structured code
// store alike, and cut-aligned/categorical filters must never issue a
// residual cell read.
package binning_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/query"
	"subtab/internal/table"
)

// predTable builds a deterministic mixed table exercising every evaluator
// regime: numeric with missing cells, a low-cardinality categorical (every
// bin single-category), and a high-cardinality categorical whose tail is
// folded into a mixed fallback bin (forcing residual checks on equality).
func predTable(t *testing.T, n int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	xs := make([]float64, n)
	ys := make([]float64, n)
	cats := make([]string, n)
	tails := make([]string, n)
	for i := range xs {
		xs[i] = math.Floor(rng.NormFloat64()*50 + 200)
		if rng.Intn(12) == 0 {
			xs[i] = math.NaN()
		}
		ys[i] = float64(rng.Intn(30))
		cats[i] = []string{"alpha", "beta", "gamma"}[rng.Intn(3)]
		if rng.Intn(15) == 0 {
			cats[i] = "" // missing
		}
		tails[i] = fmt.Sprintf("t%02d", rng.Intn(12)) // > MaxBins categories
	}
	tab := table.New("pred")
	for _, c := range []*table.Column{
		table.NewNumeric("x", xs),
		table.NewNumeric("y", ys),
		table.NewCategorical("cat", cats),
		table.NewCategorical("tail", tails),
	} {
		if err := tab.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// predCorpus enumerates the conjunctions the sweep checks: every operator,
// cut-aligned and arbitrary numeric bounds, single-bin and fallback-bin
// categorical equality, missingness, unknown columns, and multi-predicate
// conjunctions.
func predCorpus(b *binning.Binned) [][]query.Predicate {
	var cuts []float64
	if len(b.Cols[0].Cuts) > 0 {
		cuts = b.Cols[0].Cuts
	}
	var corpus [][]query.Predicate
	one := func(p query.Predicate) { corpus = append(corpus, []query.Predicate{p}) }
	for _, op := range []query.Op{query.Lt, query.Leq, query.Gt, query.Geq, query.Eq, query.Neq} {
		one(query.Predicate{Col: "x", Op: op, Num: 200})
		one(query.Predicate{Col: "x", Op: op, Num: 187.5})
		one(query.Predicate{Col: "y", Op: op, Num: 14})
		if len(cuts) > 0 {
			// A real cut: the bound every bin either wholly satisfies or
			// wholly violates — the filter must classify with no residuals.
			one(query.Predicate{Col: "x", Op: op, Num: cuts[0]})
		}
	}
	one(query.Predicate{Col: "cat", Op: query.Eq, Str: "beta"})
	one(query.Predicate{Col: "cat", Op: query.Neq, Str: "beta"})
	one(query.Predicate{Col: "cat", Op: query.Eq, Str: "no-such-label"})
	one(query.Predicate{Col: "tail", Op: query.Eq, Str: "t03"})
	one(query.Predicate{Col: "tail", Op: query.Neq, Str: "t07"})
	for _, col := range []string{"x", "cat", "tail"} {
		one(query.Predicate{Col: col, Op: query.IsMissing})
		one(query.Predicate{Col: col, Op: query.NotMissing})
	}
	one(query.Predicate{Col: "ghost", Op: query.Eq, Num: 1})
	corpus = append(corpus,
		[]query.Predicate{
			{Col: "x", Op: query.Gt, Num: 170},
			{Col: "x", Op: query.Leq, Num: 240},
			{Col: "cat", Op: query.Neq, Str: "gamma"},
		},
		[]query.Predicate{
			{Col: "tail", Op: query.Eq, Str: "t01"},
			{Col: "y", Op: query.Geq, Num: 10},
		},
		[]query.Predicate{
			{Col: "x", Op: query.NotMissing},
			{Col: "cat", Op: query.IsMissing},
		},
	)
	return corpus
}

// TestFilterMatchesCellGroundTruth sweeps the corpus over the inline
// source and a small-block code store: both must reproduce the cell-level
// evaluation row for row.
func TestFilterMatchesCellGroundTruth(t *testing.T) {
	tab := predTable(t, 700)
	b, err := binning.Bin(tab, binning.Options{MaxBins: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	store := storeFor(t, b, 64)
	cells := tab.GatherCells
	for i, preds := range predCorpus(b) {
		q := &query.Query{Where: preds}
		want, err := q.MatchingRows(tab)
		if err != nil {
			t.Fatalf("corpus %d (%v): ground truth: %v", i, preds, err)
		}
		f := b.CompileFilter(preds)
		for _, src := range []struct {
			name string
			cs   binning.CodeSource
		}{{"inline", b.Source()}, {"store", store}} {
			got, err := f.MatchingRows(src.cs, 0, cells, 0)
			if err != nil {
				t.Fatalf("corpus %d (%v) over %s: %v", i, preds, src.name, err)
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("corpus %d (%v) over %s:\n got %v\nwant %v", i, preds, src.name, got, want)
			}
		}
	}
}

// TestFilterLimitIsPrefix pins limit semantics: the first N ascending
// matches, exactly the unlimited result's prefix.
func TestFilterLimitIsPrefix(t *testing.T) {
	tab := predTable(t, 700)
	b, err := binning.Bin(tab, binning.Options{MaxBins: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cells := tab.GatherCells
	preds := []query.Predicate{{Col: "x", Op: query.Gt, Num: 180}}
	f := b.CompileFilter(preds)
	all, err := f.MatchingRows(b.Source(), 0, cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 20 {
		t.Fatalf("corpus too small: %d matches", len(all))
	}
	got, err := f.MatchingRows(b.Source(), 0, cells, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all[:7]) {
		t.Fatalf("limited rows %v, want prefix %v", got, all[:7])
	}
}

// TestExactFilterNeverReadsCells pins the paged-table guarantee: a filter
// whose every (predicate, bin) classification is decided at the code level
// reports Exact and completes with a CellFn that fails the test if called —
// and with no CellFn at all.
func TestExactFilterNeverReadsCells(t *testing.T) {
	tab := predTable(t, 700)
	b, err := binning.Bin(tab, binning.Options{MaxBins: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	exact := [][]query.Predicate{
		{{Col: "cat", Op: query.Eq, Str: "beta"}}, // single-category bin
		{{Col: "x", Op: query.IsMissing}},
		{{Col: "x", Op: query.NotMissing}},
		{{Col: "ghost", Op: query.Eq, Num: 3}}, // unknown column: empty, no reads
	}
	if len(b.Cols[0].Cuts) > 0 {
		exact = append(exact, []query.Predicate{{Col: "x", Op: query.Leq, Num: b.Cols[0].Cuts[0]}})
	}
	for i, preds := range exact {
		f := b.CompileFilter(preds)
		if !f.Exact() {
			t.Fatalf("corpus %d (%v): filter not exact", i, preds)
		}
		tripwire := binning.CellFn(func(col int, rows []int) ([]string, error) {
			t.Fatalf("corpus %d (%v): residual read of column %d", i, preds, col)
			return nil, nil
		})
		if _, err := f.MatchingRows(b.Source(), 0, tripwire, 0); err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if _, err := f.MatchingRows(b.Source(), 0, nil, 0); err != nil {
			t.Fatalf("corpus %d with nil cells: %v", i, err)
		}
	}
}

// TestResidualFilterWithoutCellsErrors pins the husk refusal: a filter that
// needs residual checks must error — not guess — when no cell reader
// exists.
func TestResidualFilterWithoutCellsErrors(t *testing.T) {
	tab := predTable(t, 700)
	b, err := binning.Bin(tab, binning.Options{MaxBins: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := b.CompileFilter([]query.Predicate{{Col: "x", Op: query.Gt, Num: 187.5}})
	if f.Exact() {
		t.Skip("bound happens to be cut-aligned")
	}
	if _, err := f.MatchingRows(b.Source(), 0, nil, 0); err == nil {
		t.Fatal("residual filter with nil CellFn did not error")
	}
}
