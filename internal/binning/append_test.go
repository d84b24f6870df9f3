package binning

import (
	"math"
	"testing"

	"subtab/internal/table"
)

// mixedTable builds rows of a numeric and a categorical column with an
// optional NaN and a controllable category mix.
func mixedTable(t *testing.T, nums []float64, cats []string) *table.Table {
	t.Helper()
	tab := table.New("t")
	if err := tab.AddColumn(table.NewNumeric("num", nums)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewCategorical("cat", cats)); err != nil {
		t.Fatal(err)
	}
	return tab
}

func concat(t *testing.T, a, b *table.Table) *table.Table {
	t.Helper()
	out, err := a.AppendRows(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendRowsSameDistributionCodesMatchFullBin(t *testing.T) {
	nums := make([]float64, 200)
	cats := make([]string, 200)
	for i := range nums {
		nums[i] = float64(i % 10)
		cats[i] = []string{"a", "b", "c"}[i%3]
	}
	old := mixedTable(t, nums, cats)
	b, err := Bin(old, Options{MaxBins: 5, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	// Appended rows drawn from the same distribution.
	delta := mixedTable(t, []float64{1, 4, 7, 9}, []string{"a", "c", "b", "a"})
	cat := concat(t, old, delta)
	nb, stats, err := AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb == nil {
		t.Fatalf("structural rebin: %s", stats.RebinReason)
	}
	if nb.NumItems() != b.NumItems() {
		t.Fatalf("item space changed: %d -> %d", b.NumItems(), nb.NumItems())
	}
	// Old rows keep their codes byte for byte; new rows agree with what a
	// direct Bin of the concatenated table computes (same cuts since the
	// distribution is unchanged enough for quantiles to land identically is
	// NOT guaranteed — so compare against per-value BinOfNum/BinOfCat).
	for c := range nb.src.(MemCodes) {
		for r := 0; r < old.NumRows(); r++ {
			if nb.Code(c, r) != b.Code(c, r) {
				t.Fatalf("old code changed at col %d row %d", c, r)
			}
		}
	}
	for r := old.NumRows(); r < cat.NumRows(); r++ {
		wantNum := b.Cols[0].BinOfNum(cat.ColumnAt(0).Nums[r])
		if int(nb.Code(0, r)) != wantNum {
			t.Fatalf("row %d num bin = %d, want %d", r, nb.Code(0, r), wantNum)
		}
		wantCat := b.Cols[1].BinOfCat(cat.ColumnAt(1).Cats[r])
		if int(nb.Code(1, r)) != wantCat {
			t.Fatalf("row %d cat bin = %d, want %d", r, nb.Code(1, r), wantCat)
		}
	}
	if stats.MaxDrift > 0.3 {
		t.Fatalf("same-distribution append drifted %.3f", stats.MaxDrift)
	}
	if stats.NewCategories != 0 {
		t.Fatalf("NewCategories = %d, want 0", stats.NewCategories)
	}
}

func TestAppendRowsDriftDetected(t *testing.T) {
	nums := make([]float64, 100)
	cats := make([]string, 100)
	for i := range nums {
		nums[i] = float64(i % 5)
		cats[i] = "a"
	}
	old := mixedTable(t, nums, cats)
	b, err := Bin(old, Options{MaxBins: 5, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	// A small chunk concentrated far above the old range: the chunk itself
	// is near-disjoint from the table's distribution, but at 4 rows against
	// 100 it barely moves the table — Drift (the thresholded quantity) must
	// stay proportional to the chunk's share, not the chunk's divergence.
	small := mixedTable(t, []float64{100, 101, 102, 103}, []string{"a", "a", "a", "a"})
	cat := concat(t, old, small)
	nb, stats, err := AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb == nil {
		t.Fatalf("unexpected structural rebin: %s", stats.RebinReason)
	}
	if stats.ChunkDrift[0] < 0.5 {
		t.Fatalf("disjoint chunk reports chunk drift %.3f", stats.ChunkDrift[0])
	}
	if stats.MaxDrift > 0.1 {
		t.Fatalf("4 disjoint rows against 100 moved the table by %.3f; want < 0.1", stats.MaxDrift)
	}

	// The same disjoint distribution arriving as a bulk load (60% of the
	// table) moves the aggregate distribution materially.
	nums60 := make([]float64, 60)
	cats60 := make([]string, 60)
	for i := range nums60 {
		nums60[i] = 100 + float64(i%4)
		cats60[i] = "a"
	}
	bulk := mixedTable(t, nums60, cats60)
	cat = concat(t, old, bulk)
	nb, stats, err = AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb == nil {
		t.Fatalf("unexpected structural rebin: %s", stats.RebinReason)
	}
	if stats.MaxDrift < 0.25 {
		t.Fatalf("bulk disjoint append moved the table by only %.3f", stats.MaxDrift)
	}
	if stats.MaxDriftCol != "num" {
		t.Fatalf("MaxDriftCol = %q, want num", stats.MaxDriftCol)
	}
}

func TestAppendRowsNewCategoryFoldsIntoLastBin(t *testing.T) {
	cats := make([]string, 60)
	for i := range cats {
		cats[i] = []string{"x", "y"}[i%2]
	}
	old := mixedTable(t, make([]float64, 60), cats)
	b, err := Bin(old, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	delta := mixedTable(t, []float64{0}, []string{"brand-new"})
	cat := concat(t, old, delta)
	nb, stats, err := AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb == nil {
		t.Fatalf("unexpected structural rebin: %s", stats.RebinReason)
	}
	if stats.NewCategories != 1 {
		t.Fatalf("NewCategories = %d, want 1", stats.NewCategories)
	}
	// The new category lands in the last non-missing bin.
	catCol := 1
	lastBin := len(b.Cols[catCol].Labels) - 1
	if b.Cols[catCol].MissingBin == lastBin {
		lastBin--
	}
	if got := int(nb.Code(catCol, old.NumRows())); got != lastBin {
		t.Fatalf("new category bin = %d, want %d", got, lastBin)
	}
	// The original binning's CatToBin must not have been extended in place.
	if len(b.Cols[catCol].CatToBin) != 2 {
		t.Fatalf("source CatToBin grew to %d", len(b.Cols[catCol].CatToBin))
	}
}

func TestAppendRowsStructuralRebinOnNewMissing(t *testing.T) {
	old := mixedTable(t, []float64{1, 2, 3, 4}, []string{"a", "b", "a", "b"})
	b, err := Bin(old, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cols[0].MissingBin != -1 {
		t.Fatal("setup: old column unexpectedly has a missing bin")
	}
	delta := mixedTable(t, []float64{math.NaN()}, []string{"a"})
	cat := concat(t, old, delta)
	nb, stats, err := AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb != nil || stats.RebinReason == "" {
		t.Fatalf("missing value in a column without a missing bin must force a rebin (got reason %q)", stats.RebinReason)
	}
}

func TestAppendRowsStructuralRebinOnAllMissingColumn(t *testing.T) {
	old := mixedTable(t, []float64{math.NaN(), math.NaN()}, []string{"a", "b"})
	b, err := Bin(old, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	delta := mixedTable(t, []float64{3}, []string{"a"})
	cat := concat(t, old, delta)
	nb, stats, err := AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nb != nil || stats.RebinReason == "" {
		t.Fatal("value appended to an all-missing column must force a rebin")
	}
}

func TestAppendRowsCountsMatchScan(t *testing.T) {
	nums := make([]float64, 120)
	cats := make([]string, 120)
	for i := range nums {
		nums[i] = float64(i % 7)
		cats[i] = []string{"a", "b", "c", "d"}[i%4]
	}
	old := mixedTable(t, nums, cats)
	b, err := Bin(old, Options{MaxBins: 4, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	// Precomputed old counts and a nil-counts call must agree on drift.
	oldCounts := make([][]int64, len(b.Cols))
	for c := range b.Cols {
		oldCounts[c] = make([]int64, b.Cols[c].NumBins())
		for _, code := range b.src.(MemCodes)[c] {
			oldCounts[c][code]++
		}
	}
	delta := mixedTable(t, []float64{0, 6, 3}, []string{"a", "d", "b"})
	cat := concat(t, old, delta)
	_, statsScan, err := AppendRows(b, cat, old.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, statsGiven, err := AppendRows(b, cat, old.NumRows(), oldCounts)
	if err != nil {
		t.Fatal(err)
	}
	for c := range statsScan.Drift {
		if statsScan.Drift[c] != statsGiven.Drift[c] {
			t.Fatalf("drift diverges at col %d: %v vs %v", c, statsScan.Drift[c], statsGiven.Drift[c])
		}
	}
}

func TestAppendRowsToEmptyTableIsMaximalDrift(t *testing.T) {
	old := mixedTable(t, nil, nil)
	b, err := Bin(old, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	delta := mixedTable(t, []float64{1}, []string{"a"})
	cat := concat(t, old, delta)
	nb, stats, err := AppendRows(b, cat, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An empty table bins every column as all-missing, so real values are a
	// structural rebin; either way the caller must not trust the increment.
	if nb != nil && stats.MaxDrift < 1 {
		t.Fatalf("append to empty table: drift %.3f, want 1 or structural rebin", stats.MaxDrift)
	}
}
