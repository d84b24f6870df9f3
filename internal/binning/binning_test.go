package binning

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"subtab/internal/table"
)

func numericTable(t *testing.T, name string, vals []float64) *table.Table {
	t.Helper()
	tab := table.New("t")
	if err := tab.AddColumn(table.NewNumeric(name, vals)); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestQuantileBinning(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	tab := numericTable(t, "x", vals)
	b, err := Bin(tab, Options{MaxBins: 4, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.NumBins() != 4 {
		t.Fatalf("bins = %d, want 4", cb.NumBins())
	}
	if cb.MissingBin != -1 {
		t.Fatal("no missing bin expected")
	}
	// Roughly equal-frequency bins.
	counts := make([]int, 4)
	for r := 0; r < 100; r++ {
		counts[b.Code(0, r)]++
	}
	for i, c := range counts {
		if c < 20 || c > 30 {
			t.Fatalf("bin %d count = %d (counts %v)", i, c, counts)
		}
	}
}

func TestEqualWidthBinning(t *testing.T) {
	tab := numericTable(t, "x", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10})
	b, err := Bin(tab, Options{MaxBins: 5, Strategy: EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if len(cb.Cuts) != 4 {
		t.Fatalf("cuts = %v", cb.Cuts)
	}
	if cb.Cuts[0] != 2 || cb.Cuts[3] != 8 {
		t.Fatalf("cuts = %v", cb.Cuts)
	}
}

func TestKDEBinningBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 0, 600)
	for i := 0; i < 300; i++ {
		vals = append(vals, rng.NormFloat64())
		vals = append(vals, 20+rng.NormFloat64())
	}
	tab := numericTable(t, "x", vals)
	b, err := Bin(tab, Options{MaxBins: 5, Strategy: KDEValleys, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	// The valley should split the two modes: values near 0 and near 20 land
	// in different bins.
	lowBin := cb.BinOfNum(0)
	highBin := cb.BinOfNum(20)
	if lowBin == highBin {
		t.Fatalf("modes not separated: cuts = %v", cb.Cuts)
	}
}

func TestKDEFallbackUniform(t *testing.T) {
	// Uniform data has no interior valleys; must fall back to quantiles.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i % 100)
	}
	tab := numericTable(t, "x", vals)
	b, err := Bin(tab, Options{MaxBins: 5, Strategy: KDEValleys, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Cols[0].NumBins(); got < 2 {
		t.Fatalf("bins = %d, want >= 2", got)
	}
}

func TestMissingNumericGetsOwnBin(t *testing.T) {
	tab := numericTable(t, "x", []float64{1, 2, math.NaN(), 4, 5})
	b, err := Bin(tab, Options{MaxBins: 3, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.MissingBin < 0 {
		t.Fatal("missing bin expected")
	}
	if cb.Labels[cb.MissingBin] != MissingLabel {
		t.Fatalf("missing label = %q", cb.Labels[cb.MissingBin])
	}
	if int(b.Code(0, 2)) != cb.MissingBin {
		t.Fatal("NaN row should map to missing bin")
	}
}

func TestAllMissingNumeric(t *testing.T) {
	tab := numericTable(t, "x", []float64{math.NaN(), math.NaN()})
	b, err := Bin(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.NumBins() != 1 || cb.MissingBin != 0 {
		t.Fatalf("all-missing column bins = %+v", cb)
	}
}

func TestConstantNumeric(t *testing.T) {
	tab := numericTable(t, "x", []float64{7, 7, 7})
	b, err := Bin(tab, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Cols[0].NumBins(); got != 1 {
		t.Fatalf("constant column bins = %d", got)
	}
}

func TestCategoricalSmall(t *testing.T) {
	tab := table.New("t")
	if err := tab.AddColumn(table.NewCategorical("airline", []string{"AA", "B6", "AA", "DL", "AA", "B6"})); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.NumBins() != 3 {
		t.Fatalf("bins = %d (%v)", cb.NumBins(), cb.Labels)
	}
	// Frequency order: AA (3), B6 (2), DL (1).
	if cb.Labels[0] != "AA" || cb.Labels[1] != "B6" || cb.Labels[2] != "DL" {
		t.Fatalf("labels = %v", cb.Labels)
	}
}

func TestCategoricalOtherGrouping(t *testing.T) {
	vals := []string{"a", "a", "a", "b", "b", "c", "d", "e", "f", "g"}
	tab := table.New("t")
	if err := tab.AddColumn(table.NewCategorical("x", vals)); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 3})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.NumBins() != 3 {
		t.Fatalf("bins = %d (%v)", cb.NumBins(), cb.Labels)
	}
	if cb.Labels[2] != "other" {
		t.Fatalf("labels = %v", cb.Labels)
	}
	// "c".."g" all map to the other bin.
	col := tab.Column("x")
	for r := 5; r < 10; r++ {
		if int(b.Code(0, r)) != 2 {
			t.Fatalf("row %d (%s) bin = %d", r, col.CellString(r), b.Code(0, r))
		}
	}
}

func TestCategoricalMissing(t *testing.T) {
	tab := table.New("t")
	if err := tab.AddColumn(table.NewCategorical("x", []string{"a", "", "b"})); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	if cb.MissingBin < 0 {
		t.Fatal("missing bin expected")
	}
	if int(b.Code(0, 1)) != cb.MissingBin {
		t.Fatal("missing cell should map to missing bin")
	}
}

func TestItemIDs(t *testing.T) {
	tab := table.New("t")
	if err := tab.AddColumn(table.NewNumeric("num", []float64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewCategorical("cat", []string{"x", "y", "x", "y"})); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 2, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumItems() != 4 {
		t.Fatalf("items = %d, want 4", b.NumItems())
	}
	// Item ids partition by column.
	for c := 0; c < 2; c++ {
		for r := 0; r < 4; r++ {
			item := b.Item(c, r)
			if b.ColOfItem(item) != c {
				t.Fatalf("ColOfItem(%d) = %d, want %d", item, b.ColOfItem(item), c)
			}
			if b.BinOfItem(item) != int(b.Code(c, r)) {
				t.Fatal("BinOfItem mismatch")
			}
		}
	}
	label := b.ItemLabel(b.Item(1, 0))
	if !strings.HasPrefix(label, "cat=") {
		t.Fatalf("label = %q", label)
	}
	if got := b.CellLabel(1, 0); got != "x" {
		t.Fatalf("CellLabel = %q", got)
	}
}

func TestItemOf(t *testing.T) {
	tab := table.New("t")
	if err := tab.AddColumn(table.NewNumeric("a", []float64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewNumeric("b", []float64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 2, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	if b.ItemOf(0, 0) != 0 {
		t.Fatalf("ItemOf(0,0) = %d", b.ItemOf(0, 0))
	}
	if b.ItemOf(1, 0) != int32(b.Cols[0].NumBins()) {
		t.Fatalf("ItemOf(1,0) = %d", b.ItemOf(1, 0))
	}
}

func TestBinOfNumBoundaries(t *testing.T) {
	cb := ColumnBins{Cuts: []float64{10, 20}}
	cases := []struct {
		v    float64
		want int
	}{
		{5, 0}, {10, 0}, {10.5, 1}, {20, 1}, {25, 2},
	}
	for _, c := range cases {
		if got := cb.BinOfNum(c.v); got != c.want {
			t.Errorf("BinOfNum(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if KDEValleys.String() != "kde" || Quantile.String() != "quantile" || EqualWidth.String() != "equal-width" {
		t.Fatal("strategy names")
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Fatal("unknown strategy name")
	}
}

func TestUnknownStrategyError(t *testing.T) {
	tab := numericTable(t, "x", []float64{1, 2, 3})
	if _, err := Bin(tab, Options{Strategy: Strategy(99)}); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

// Property: every non-missing value maps to a bin in range, missing values
// map to the missing bin, and the number of bins respects MaxBins+1.
func TestPropPartition(t *testing.T) {
	f := func(raw []float64, maxBins uint8) bool {
		mb := int(maxBins%8) + 2
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = v
		}
		if len(vals) == 0 {
			return true
		}
		tab := table.New("t")
		if err := tab.AddColumn(table.NewNumeric("x", vals)); err != nil {
			return false
		}
		for _, strat := range []Strategy{Quantile, EqualWidth, KDEValleys} {
			b, err := Bin(tab, Options{MaxBins: mb, Strategy: strat, Seed: 3})
			if err != nil {
				return false
			}
			cb := b.Cols[0]
			if cb.NumBins() > mb+1 {
				return false
			}
			for r, v := range vals {
				bin := int(b.Code(0, r))
				if bin < 0 || bin >= cb.NumBins() {
					return false
				}
				if math.IsNaN(v) != (bin == cb.MissingBin) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: numeric binning is monotone — larger values land in equal or
// later bins.
func TestPropMonotoneBins(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		tab := table.New("t")
		if err := tab.AddColumn(table.NewNumeric("x", vals)); err != nil {
			return false
		}
		b, err := Bin(tab, Options{MaxBins: 4, Strategy: Quantile})
		if err != nil {
			return false
		}
		cb := b.Cols[0]
		for i := 0; i < len(vals); i++ {
			for j := 0; j < len(vals); j++ {
				if vals[i] < vals[j] && cb.BinOfNum(vals[i]) > cb.BinOfNum(vals[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedTableGlobalItems(t *testing.T) {
	tab := table.New("t")
	cols := []struct {
		name string
		num  bool
	}{{"a", true}, {"b", false}, {"c", true}}
	for _, c := range cols {
		if c.num {
			if err := tab.AddColumn(table.NewNumeric(c.name, []float64{1, 2, 3, 4, 5, 6})); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tab.AddColumn(table.NewCategorical(c.name, []string{"x", "y", "z", "x", "y", "z"})); err != nil {
				t.Fatal(err)
			}
		}
	}
	b, err := Bin(tab, Options{MaxBins: 3, Strategy: Quantile})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cb := range b.Cols {
		total += cb.NumBins()
	}
	if b.NumItems() != total {
		t.Fatalf("NumItems = %d, want %d", b.NumItems(), total)
	}
	// Item ids are dense and non-overlapping.
	seen := map[int32]bool{}
	for c := range b.Cols {
		for bin := 0; bin < b.Cols[c].NumBins(); bin++ {
			id := b.ItemOf(c, bin)
			if seen[id] {
				t.Fatalf("duplicate item id %d", id)
			}
			seen[id] = true
			if id < 0 || int(id) >= b.NumItems() {
				t.Fatalf("item id %d out of range", id)
			}
		}
	}
}

// TestMaxBinsLimit pins the bound that keeps bin codes exact: a column
// holds at most MaxBins bins plus a missing bin, codes are uint16, so Bin
// refuses MaxBins above MaxBinsLimit instead of wrapping a code onto
// another bin's, and at the limit every row's code is its bin.
func TestMaxBinsLimit(t *testing.T) {
	const n = 66_000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = "c" + strconv.Itoa(i)
	}
	vals[n-1] = "" // missing: its bin takes the top code, 65535
	tab := table.New("t")
	if err := tab.AddColumn(table.NewCategorical("x", vals)); err != nil {
		t.Fatal(err)
	}
	if _, err := Bin(tab, Options{MaxBins: 70_000}); err == nil {
		t.Fatal("MaxBins 70000 accepted")
	}
	b, err := Bin(tab, Options{MaxBins: MaxBinsLimit})
	if err != nil {
		t.Fatal(err)
	}
	cb, col := b.Cols[0], tab.ColumnAt(0)
	if cb.NumBins() != MaxBinsLimit+1 || cb.MissingBin != MaxBinsLimit {
		t.Fatalf("bins = %d, missing bin %d; want %d and %d", cb.NumBins(), cb.MissingBin, MaxBinsLimit+1, MaxBinsLimit)
	}
	for r := 0; r < n; r++ {
		want := cb.MissingBin
		if !col.Missing(r) {
			want = cb.BinOfCat(col.Cats[r])
		}
		if got := int(b.Code(0, r)); got != want {
			t.Fatalf("row %d: code %d, bin %d", r, got, want)
		}
	}
}
