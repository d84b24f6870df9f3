package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/corpus"
	"subtab/internal/query"
	"subtab/internal/rules"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// ruleTable builds a table with two planted patterns over 4 columns:
// pattern A rows have (a=hi, b=hi, cancelled=1, NaN in d), pattern B rows
// have (a=lo, b=lo, cancelled=0, d present).
func ruleTable(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	e := make([]string, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a[i] = 100 + rng.Float64()*5
			b[i] = 100 + rng.Float64()*5
			c[i] = 1
			d[i] = math.NaN()
		} else {
			a[i] = rng.Float64() * 5
			b[i] = rng.Float64() * 5
			c[i] = 0
			d[i] = rng.Float64() * 100
		}
		e[i] = []string{"x", "y", "z"}[rng.Intn(3)]
	}
	tab := table.New("planted")
	for _, col := range []struct {
		name string
		vals []float64
	}{{"a", a}, {"b", b}, {"cancelled", c}, {"d", d}} {
		if err := tab.AddColumn(table.NewNumeric(col.name, col.vals)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.AddColumn(table.NewCategorical("e", e)); err != nil {
		t.Fatal(err)
	}
	return tab
}

func testOptions() Options {
	return Options{
		Bins:      binning.Options{MaxBins: 3, Strategy: binning.Quantile, Seed: 1},
		Corpus:    corpus.Options{MaxSentences: 10_000, TupleSentences: true, Seed: 1},
		Embedding: word2vec.Options{Dim: 16, Epochs: 4, Window: 4, Seed: 1},
	}
}

// TestPreprocessRefusesOversizedDim: a model file holds at most
// word2vec.MaxDim dimensions, so Preprocess refuses more before training
// rather than build a model that cannot be loaded back.
func TestPreprocessRefusesOversizedDim(t *testing.T) {
	opt := testOptions()
	opt.Embedding.Dim = word2vec.MaxDim + 1
	if _, err := Preprocess(ruleTable(t, 20, 1), opt); err == nil {
		t.Fatalf("Preprocess accepted dim %d", opt.Embedding.Dim)
	}
}

func TestPreprocess(t *testing.T) {
	tab := ruleTable(t, 200, 1)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.B.NumItems() == 0 {
		t.Fatal("no items")
	}
	// Every item that occurs in the data has a vector (column sentences
	// cover every row).
	for c := 0; c < m.B.NumCols(); c++ {
		for r := 0; r < 50; r++ {
			if m.ItemVector(m.B.Item(c, r)) == nil {
				t.Fatalf("item %d (col %d row %d) has no vector", m.B.Item(c, r), c, r)
			}
		}
	}
	if m.ItemVector(-1) != nil || m.ItemVector(int32(m.B.NumItems())) != nil {
		t.Fatal("out-of-range items should have nil vectors")
	}
}

func TestSelectDimensions(t *testing.T) {
	tab := ruleTable(t, 200, 2)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SourceRows) != 5 {
		t.Fatalf("rows = %d, want 5", len(st.SourceRows))
	}
	if len(st.Cols) != 3 {
		t.Fatalf("cols = %v, want 3", st.Cols)
	}
	if st.View.NumRows() != 5 || st.View.NumCols() != 3 {
		t.Fatalf("view dims = %dx%d", st.View.NumRows(), st.View.NumCols())
	}
	// Source rows are valid and unique.
	seen := map[int]bool{}
	for _, r := range st.SourceRows {
		if r < 0 || r >= tab.NumRows() || seen[r] {
			t.Fatalf("bad source rows %v", st.SourceRows)
		}
		seen[r] = true
	}
}

func TestSelectTargetsIncluded(t *testing.T) {
	tab := ruleTable(t, 200, 3)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(4, 3, []string{"cancelled"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range st.Cols {
		if c == "cancelled" {
			found = true
		}
	}
	if !found {
		t.Fatalf("target column missing from %v", st.Cols)
	}
}

func TestSelectErrors(t *testing.T) {
	tab := ruleTable(t, 50, 4)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Select(0, 3, nil); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := m.Select(3, 0, nil); err == nil {
		t.Fatal("l=0 should error")
	}
	if _, err := m.Select(3, 3, []string{"nope"}); err == nil {
		t.Fatal("unknown target should error")
	}
	if _, err := m.Select(3, 1, []string{"a", "b"}); err == nil {
		t.Fatal("too many targets should error")
	}
}

func TestSelectKLargerThanTable(t *testing.T) {
	tab := ruleTable(t, 10, 5)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(50, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SourceRows) != 10 || len(st.Cols) != 5 {
		t.Fatalf("dims = %dx%d", len(st.SourceRows), len(st.Cols))
	}
}

func TestSelectSeparatesPatterns(t *testing.T) {
	// k=2 on a table with two strong patterns should pick one row of each.
	tab := ruleTable(t, 400, 6)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	canc := tab.Column("cancelled")
	if len(st.SourceRows) != 2 {
		t.Fatalf("rows = %v", st.SourceRows)
	}
	v0 := canc.Nums[st.SourceRows[0]]
	v1 := canc.Nums[st.SourceRows[1]]
	if v0 == v1 {
		t.Fatalf("both rows from the same pattern (cancelled=%v)", v0)
	}
}

func TestSelectQuery(t *testing.T) {
	tab := ruleTable(t, 300, 7)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Where: []query.Predicate{{Col: "cancelled", Op: query.Eq, Num: 1}}}
	st, err := m.SelectQuery(q, 4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All selected rows satisfy the query.
	for _, r := range st.SourceRows {
		if tab.Column("cancelled").Nums[r] != 1 {
			t.Fatalf("row %d violates the query", r)
		}
	}
}

func TestSelectQueryProjection(t *testing.T) {
	tab := ruleTable(t, 200, 8)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Select: []string{"a", "b", "cancelled"}}
	st, err := m.SelectQuery(q, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Cols {
		if c != "a" && c != "b" && c != "cancelled" {
			t.Fatalf("column %q outside projection", c)
		}
	}
}

func TestSelectQueryNilIsSelect(t *testing.T) {
	tab := ruleTable(t, 100, 9)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.SelectQuery(nil, 3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Select(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SourceRows) != len(b.SourceRows) {
		t.Fatal("nil query should behave like Select")
	}
	for i := range a.SourceRows {
		if a.SourceRows[i] != b.SourceRows[i] {
			t.Fatal("nil query selection differs from Select")
		}
	}
}

func TestSelectQueryEmptyResult(t *testing.T) {
	tab := ruleTable(t, 100, 10)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Where: []query.Predicate{{Col: "cancelled", Op: query.Eq, Num: 42}}}
	if _, err := m.SelectQuery(q, 3, 3, nil); err == nil {
		t.Fatal("empty query result should error")
	}
}

func TestSelectQueryGroupBy(t *testing.T) {
	tab := ruleTable(t, 200, 11)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		GroupBy: []string{"e"},
		Aggs:    []query.Aggregate{{Func: query.Count}},
	}
	st, err := m.SelectQuery(q, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SourceRows) == 0 {
		t.Fatal("group-by selection empty")
	}
}

func TestSelectDeterministic(t *testing.T) {
	tab := ruleTable(t, 150, 12)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.SourceRows {
		if a.SourceRows[i] != b.SourceRows[i] {
			t.Fatal("selection should be deterministic for a fixed model")
		}
	}
}

func TestHighlight(t *testing.T) {
	tab := ruleTable(t, 300, 13)
	opt := testOptions()
	m, err := Preprocess(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Mine(m.B, rules.Options{MinSupport: 0.2, MinConfidence: 0.5, MinRuleSize: 2, MaxItemsetSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("expected rules on planted data")
	}
	st, err := m.Select(5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	hl, perRow := Highlight(m.B, rs, st)
	if len(perRow) != len(st.SourceRows) {
		t.Fatalf("perRow = %d", len(perRow))
	}
	anyRule := false
	for vi, ri := range perRow {
		if ri < 0 {
			continue
		}
		anyRule = true
		// Highlighted cells match the rule's columns.
		r := rs[ri]
		nMarked := 0
		for ci := range st.ColIdx {
			if hl(vi, ci) {
				nMarked++
			}
		}
		if nMarked != len(r.Cols) {
			t.Fatalf("row %d: marked %d cells, rule has %d cols", vi, nMarked, len(r.Cols))
		}
	}
	if !anyRule {
		t.Fatal("no row highlighted any rule")
	}
	// The render hook works end to end.
	out := st.View.Render(hl)
	if !strings.Contains(out, "[") {
		t.Fatalf("no highlight markers in render:\n%s", out)
	}
}

func TestAsMetricSubTable(t *testing.T) {
	tab := ruleTable(t, 80, 14)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := st.AsMetricSubTable()
	if len(ms.Rows) != len(st.SourceRows) || len(ms.Cols) != len(st.ColIdx) {
		t.Fatal("metric adapter mismatch")
	}
}

func TestRowColVectors(t *testing.T) {
	tab := ruleTable(t, 100, 15)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 1, 2}
	v := m.RowVector(0, cols)
	if len(v) != m.Emb.Dim() {
		t.Fatalf("row vector dim = %d", len(v))
	}
	rows := []int{0, 1, 2, 3}
	cv := m.ColVector(0, rows)
	if len(cv) != m.Emb.Dim() {
		t.Fatalf("col vector dim = %d", len(cv))
	}
	// Rows from the same pattern have more similar vectors than rows from
	// different patterns.
	same := word2vec.Cosine(m.RowVector(0, cols), m.RowVector(2, cols))
	diff := word2vec.Cosine(m.RowVector(0, cols), m.RowVector(1, cols))
	if same <= diff {
		t.Fatalf("same-pattern sim %v <= cross-pattern sim %v", same, diff)
	}
}

// TestRepresentativeTiesPickLowestRow: identical rows have identical
// vectors, so their centroid distances tie exactly, and the display must
// show the lowest source row of every duplicate group — on the exact path
// and the scaled path (a sample budget above the row count keeps every row
// a candidate there).
func TestRepresentativeTiesPickLowestRow(t *testing.T) {
	const n, patterns = 400, 8
	rng := rand.New(rand.NewSource(23))
	pat := make([]int, n)
	first := make(map[int]int, patterns)
	a, b := make([]float64, n), make([]float64, n)
	e := make([]string, n)
	for i := range pat {
		p := rng.Intn(patterns)
		if _, ok := first[p]; !ok {
			first[p] = i
		}
		pat[i], a[i], b[i], e[i] = p, float64(p%4)*10, float64(p/4)*7, []string{"x", "y", "z"}[p%3]
	}
	tab := table.New("dups")
	for _, col := range []*table.Column{table.NewNumeric("a", a), table.NewNumeric("b", b), table.NewCategorical("e", e)} {
		if err := tab.AddColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	scaled := &ScaleOptions{Threshold: 1, SampleBudget: 2 * n, BatchSize: 64, MaxIter: 30}
	for _, tc := range []struct {
		name  string
		scale *ScaleOptions
	}{{"exact", nil}, {"scaled", scaled}} {
		st, err := m.SelectExplore(ExploreSpec{K: 6, L: 3, Scale: tc.scale})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.SourceRows) == 0 {
			t.Fatalf("%s: no rows displayed", tc.name)
		}
		for _, r := range st.SourceRows {
			if low := first[pat[r]]; r != low {
				t.Fatalf("%s: displayed row %d, but row %d is its duplicate and lower (rows %v)", tc.name, r, low, st.SourceRows)
			}
		}
	}
}

func TestRulesKeyUnambiguous(t *testing.T) {
	a := rulesKey(rules.Options{TargetCols: []string{"a", "b"}})
	b := rulesKey(rules.Options{TargetCols: []string{"a b"}})
	if a == b {
		t.Fatalf("distinct target sets share cache key %q", a)
	}
	if rulesKey(rules.Options{MaxItemShare: 0.5}) == rulesKey(rules.Options{}) {
		t.Fatal("MaxItemShare is missing from the cache key")
	}
}
