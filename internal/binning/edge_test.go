package binning

// Edge-case behavior of Bin that used to be implicitly defined: empty
// tables, zero-row columns, single rows, single columns, all-missing
// numeric columns, single-category columns. These tests turn the current
// (sane) behavior into a contract so refactors cannot silently regress the
// degenerate inputs a streaming ingestion path routinely produces (the
// first chunk of a feed is often tiny or partially empty).

import (
	"math"
	"testing"

	"subtab/internal/table"
)

func TestBinEmptyTable(t *testing.T) {
	b, err := Bin(table.New("e"), Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumItems() != 0 || b.NumCols() != 0 || b.NumRows() != 0 {
		t.Fatalf("empty table binned to %d items, %d cols", b.NumItems(), b.NumCols())
	}
}

func TestBinZeroRowColumns(t *testing.T) {
	tab := table.New("e")
	if err := tab.AddColumn(table.NewNumeric("n", nil)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewCategorical("c", nil)); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A column with no data gets exactly the missing bin.
	for c, cb := range b.Cols {
		if cb.NumBins() != 1 || cb.MissingBin != 0 {
			t.Fatalf("col %d: %d bins, missing at %d; want the single missing bin", c, cb.NumBins(), cb.MissingBin)
		}
		if len(b.src.(MemCodes)[c]) != 0 {
			t.Fatalf("col %d has %d codes for 0 rows", c, len(b.src.(MemCodes)[c]))
		}
	}
}

func TestBinSingleRow(t *testing.T) {
	tab := table.New("e")
	if err := tab.AddColumn(table.NewNumeric("n", []float64{5})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewCategorical("c", []string{"x"})); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{KDEValleys, Quantile, EqualWidth} {
		b, err := Bin(tab, Options{MaxBins: 5, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if nb := b.Cols[0].NumBins(); nb != 1 {
			t.Fatalf("%v: single value binned into %d bins", strat, nb)
		}
		if len(b.Cols[0].Cuts) != 0 {
			t.Fatalf("%v: single value produced cuts %v", strat, b.Cols[0].Cuts)
		}
		if b.Code(0, 0) != 0 || b.Code(1, 0) != 0 {
			t.Fatalf("%v: single row coded %d/%d", strat, b.Code(0, 0), b.Code(1, 0))
		}
		if b.Cols[1].Labels[0] != "x" {
			t.Fatalf("%v: category label %q", strat, b.Cols[1].Labels[0])
		}
	}
}

func TestBinSingleColumn(t *testing.T) {
	tab := numericTable(t, "n", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	b, err := Bin(tab, Options{MaxBins: 3, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumCols() != 1 {
		t.Fatalf("cols = %d", b.NumCols())
	}
	if nb := b.Cols[0].NumBins(); nb < 2 || nb > 3 {
		t.Fatalf("8 distinct values in %d bins, want 2-3", nb)
	}
	// Item ids start at 0 for the only column.
	if b.Item(0, 0) < 0 || int(b.Item(0, 0)) >= b.NumItems() {
		t.Fatalf("item id %d out of range", b.Item(0, 0))
	}
}

func TestBinAllNaNNumeric(t *testing.T) {
	tab := numericTable(t, "n", []float64{math.NaN(), math.NaN(), math.NaN()})
	b, err := Bin(tab, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.NumBins() != 1 || cb.MissingBin != 0 || cb.Labels[0] != MissingLabel {
		t.Fatalf("all-NaN column: bins %v, missing at %d", cb.Labels, cb.MissingBin)
	}
	for r := 0; r < 3; r++ {
		if b.Code(0, r) != 0 {
			t.Fatalf("row %d coded %d", r, b.Code(0, r))
		}
	}
}

func TestBinSingleCategoryColumn(t *testing.T) {
	tab := table.New("e")
	if err := tab.AddColumn(table.NewCategorical("c", []string{"x", "x", "x", "x"})); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.NumBins() != 1 || cb.MissingBin != -1 {
		t.Fatalf("one-category column: %d bins, missing at %d; want 1 and -1", cb.NumBins(), cb.MissingBin)
	}
	if cb.Labels[0] != "x" {
		t.Fatalf("label %q, want x", cb.Labels[0])
	}
	for r := 0; r < 4; r++ {
		if b.Code(0, r) != 0 {
			t.Fatalf("row %d coded %d", r, b.Code(0, r))
		}
	}
}

func TestBinConstantNumericKDE(t *testing.T) {
	// A constant column must not trip the KDE path (zero bandwidth).
	tab := numericTable(t, "n", []float64{7, 7, 7, 7, 7})
	b, err := Bin(tab, Options{MaxBins: 5, Strategy: KDEValleys})
	if err != nil {
		t.Fatal(err)
	}
	if nb := b.Cols[0].NumBins(); nb != 1 {
		t.Fatalf("constant column in %d bins", nb)
	}
}

func TestBinTwoDistinctKDE(t *testing.T) {
	tab := numericTable(t, "n", []float64{1, 1, 1, 9, 9})
	b, err := Bin(tab, Options{MaxBins: 5, Strategy: KDEValleys})
	if err != nil {
		t.Fatal(err)
	}
	if nb := b.Cols[0].NumBins(); nb != 2 {
		t.Fatalf("two distinct values in %d bins, want 2", nb)
	}
	if b.Code(0, 0) == b.Code(0, 3) {
		t.Fatal("1 and 9 share a bin")
	}
}
