package core

import (
	"testing"

	"subtab/internal/binning"
	"subtab/internal/metrics"
	"subtab/internal/rules"
)

// TestColumnAffinityStructure verifies that the precomputed column
// affinities rank truly associated column pairs above noise pairs on the
// planted table (the property pattern-group selection rests on).
func TestColumnAffinityStructure(t *testing.T) {
	tab := ruleTable(t, 1200, 21)
	opt := testOptions()
	// KDE binning recovers the fixture's gapped regimes as bins, which is
	// what aligns bin-level co-occurrence with the planted pattern.
	opt.Bins.Strategy = binning.KDEValleys
	opt.Embedding.Dim = 24
	opt.Embedding.Epochs = 6
	m, err := Preprocess(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	ai := tab.ColumnIndex("a")
	bi := tab.ColumnIndex("b")
	ei := tab.ColumnIndex("e") // noise column
	assoc := m.ColumnAffinity(ai, bi)
	noise := m.ColumnAffinity(ai, ei)
	if assoc <= noise {
		t.Fatalf("a-b affinity %v should exceed a-e (noise) affinity %v", assoc, noise)
	}
	// Self-affinity is defined as zero.
	if m.ColumnAffinity(ai, ai) != 0 {
		t.Fatal("self affinity should be 0")
	}
	// Symmetry.
	if m.ColumnAffinity(ai, bi) != m.ColumnAffinity(bi, ai) {
		t.Fatal("affinity must be symmetric")
	}
}

// TestCentroidStrategy runs the literal Algorithm 2 column step end to end.
func TestCentroidStrategy(t *testing.T) {
	tab := ruleTable(t, 300, 22)
	opt := testOptions()
	opt.Columns = Centroids
	m, err := Preprocess(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cols) != 3 || len(st.SourceRows) != 5 {
		t.Fatalf("dims = %dx%d", len(st.SourceRows), len(st.Cols))
	}
}

// TestPatternGroupsBeatCentroidsOnCoverage is the column-strategy ablation
// as a test: on rule-rich data the pattern-group step should achieve at
// least the coverage of the literal centroid step.
func TestPatternGroupsBeatCentroidsOnCoverage(t *testing.T) {
	tab := ruleTable(t, 800, 23)
	base := testOptions()
	base.Embedding.Epochs = 6

	pg := base
	pg.Columns = PatternGroups
	mPG, err := Preprocess(tab, pg)
	if err != nil {
		t.Fatal(err)
	}
	ct := base
	ct.Columns = Centroids
	mCT, err := Preprocess(tab, ct)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := rules.Mine(mPG.B, rules.Options{MinSupport: 0.15, MinConfidence: 0.6, MinRuleSize: 2, MaxItemsetSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules on planted data")
	}
	e := metrics.NewEvaluator(mPG.B, rs, 0.5)

	stPG, err := mPG.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	stCT, err := mCT.Select(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	covPG := e.CellCoverage(stPG.AsMetricSubTable())
	covCT := e.CellCoverage(stCT.AsMetricSubTable())
	if covPG < covCT-0.05 {
		t.Fatalf("pattern groups coverage %v clearly below centroids %v", covPG, covCT)
	}
}

func TestGreedyCore(t *testing.T) {
	// Affinity matrix with a strong pair (0,1), a hub (2) weakly connected
	// to everything: the core must start with the strong pair.
	aff := [][]float64{
		{0, 10, 3, 1},
		{10, 0, 3, 1},
		{3, 3, 0, 3},
		{1, 1, 3, 0},
	}
	got := greedyCore(aff, []int{0, 1, 2, 3})
	if !(got[0] == 0 && got[1] == 1 || got[0] == 1 && got[1] == 0) {
		t.Fatalf("core should start with the strongest pair, got %v", got)
	}
	if len(got) != 4 {
		t.Fatalf("core must keep all members, got %v", got)
	}
	// Tiny groups pass through.
	small := greedyCore(aff, []int{2, 3})
	if len(small) != 2 {
		t.Fatalf("small group = %v", small)
	}
}

func TestPatternGroupsNeedExceedsCandidates(t *testing.T) {
	tab := ruleTable(t, 100, 24)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cand := []int{0, 1, 2}
	got := m.patternGroupColumns(cand, 10)
	if len(got) != 3 {
		t.Fatalf("should return all candidates when budget exceeds them: %v", got)
	}
}
