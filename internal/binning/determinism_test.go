package binning

import (
	"math/rand"
	"testing"

	"subtab/internal/table"
)

// TestBinningDeterministic: identical inputs and seeds produce identical
// binnings — required for reproducible pipelines.
func TestBinningDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 800
	vals := make([]float64, n)
	cats := make([]string, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()*10 + float64(i%3)*100
		cats[i] = string(rune('a' + rng.Intn(8)))
	}
	build := func() *Binned {
		tab := table.New("t")
		if err := tab.AddColumn(table.NewNumeric("x", append([]float64(nil), vals...))); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddColumn(table.NewCategorical("c", append([]string(nil), cats...))); err != nil {
			t.Fatal(err)
		}
		b, err := Bin(tab, Options{MaxBins: 4, Strategy: KDEValleys, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if a.NumItems() != b.NumItems() {
		t.Fatalf("item counts differ: %d vs %d", a.NumItems(), b.NumItems())
	}
	for c := range a.Cols {
		if len(a.Cols[c].Labels) != len(b.Cols[c].Labels) {
			t.Fatalf("col %d label counts differ", c)
		}
		for i := range a.Cols[c].Labels {
			if a.Cols[c].Labels[i] != b.Cols[c].Labels[i] {
				t.Fatalf("col %d label %d differs: %q vs %q", c, i, a.Cols[c].Labels[i], b.Cols[c].Labels[i])
			}
		}
		for r := 0; r < n; r++ {
			if a.Code(c, r) != b.Code(c, r) {
				t.Fatalf("col %d row %d code differs", c, r)
			}
		}
	}
}

// TestKDESampleCapRespected: KDE binning over a huge column must not read
// more than SampleSize values into the estimator (indirectly: it still
// terminates fast and produces valid bins).
func TestKDESampleCapRespected(t *testing.T) {
	n := 50_000
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = float64(i%2)*1000 + rng.Float64()
	}
	tab := table.New("t")
	if err := tab.AddColumn(table.NewNumeric("x", vals)); err != nil {
		t.Fatal(err)
	}
	b, err := Bin(tab, Options{MaxBins: 5, Strategy: KDEValleys, SampleSize: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.Cols[0]
	// The two gapped modes must land in different bins.
	if cb.BinOfNum(0.5) == cb.BinOfNum(1000.5) {
		t.Fatalf("modes not separated with capped sample: cuts %v", cb.Cuts)
	}
}
