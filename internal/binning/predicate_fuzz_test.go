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

// fuzzFilterTable is predTable with a wide-range numeric column: fractions,
// values on both sides of FormatNum's 1e15 switch, negative zero and
// subnormals, drawn from a small pool so equality predicates hit. Its
// boundary bins send rows through the residual check, which parses the
// rendered cell back — so the filter agrees with Matches only while
// ParseFloat(FormatNum(v)) == v.
func fuzzFilterTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	pool := []float64{
		0, math.Copysign(0, -1), 0.5, -2.25, 1.0 / 3, 7.125, 123456.789,
		1e15 - 1, 1e15, 1e15 + 2, -1e15, 3.5e17, -1.25e18,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	}
	for i := 0; i < 25; i++ {
		pool = append(pool, math.Round(rng.NormFloat64()*1e5)/float64(1+rng.Intn(64)))
	}
	xs := make([]float64, n)
	zs := make([]float64, n)
	cats := make([]string, n)
	tails := make([]string, n)
	for i := range xs {
		xs[i] = math.Floor(rng.NormFloat64()*50 + 200)
		if rng.Intn(12) == 0 {
			xs[i] = math.NaN()
		}
		zs[i] = pool[rng.Intn(len(pool))]
		if rng.Intn(10) == 0 {
			zs[i] = math.NaN()
		}
		cats[i] = []string{"alpha", "beta", "gamma"}[rng.Intn(3)]
		if rng.Intn(15) == 0 {
			cats[i] = ""
		}
		tails[i] = fmt.Sprintf("t%02d", rng.Intn(12))
	}
	tab := table.New("fuzz")
	for _, c := range []*table.Column{
		table.NewNumeric("x", xs),
		table.NewNumeric("z", zs),
		table.NewCategorical("cat", cats),
		table.NewCategorical("tail", tails),
	} {
		if err := tab.AddColumn(c); err != nil {
			tb.Fatal(err)
		}
	}
	return tab
}

// randomPredicate draws one predicate over tab: any operator on any column
// (or an unknown one), with comparands from the fuzzed num, the column's
// cuts and their float neighbours, its cell values, its labels, and the
// special values.
func randomPredicate(rng *rand.Rand, tab *table.Table, b *binning.Binned, num float64) query.Predicate {
	ops := []query.Op{query.Eq, query.Neq, query.Lt, query.Leq, query.Gt, query.Geq, query.IsMissing, query.NotMissing}
	p := query.Predicate{Op: ops[rng.Intn(len(ops))]}
	if rng.Intn(20) == 0 {
		p.Col = "ghost"
		return p
	}
	c := rng.Intn(tab.NumCols())
	col := tab.ColumnAt(c)
	p.Col = col.Name
	if col.Kind == table.Categorical {
		labels := []string{"", "NaN", "t99", "alpha", "beta", "gamma", "t00", "t03", "t07", "t11"}
		p.Str = labels[rng.Intn(len(labels))]
		return p
	}
	cuts := b.Cols[c].Cuts
	switch k := rng.Intn(6); {
	case k == 0 || len(cuts) == 0:
		p.Num = num
	case k == 1:
		p.Num = cuts[rng.Intn(len(cuts))]
	case k == 2:
		p.Num = math.Nextafter(cuts[rng.Intn(len(cuts))], math.Inf(2*rng.Intn(2)-1))
	case k == 3:
		p.Num = col.Nums[rng.Intn(len(col.Nums))]
	case k == 4:
		p.Num = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[rng.Intn(5)]
	default:
		p.Num = num + float64(rng.Intn(3)-1)
	}
	return p
}

// FuzzCompileFilter checks the code-level filter against the resident-cell
// evaluation: over the inline codes and a code store, the streamed matching
// rows of a random conjunction equal the rows where every
// query.Predicate.Matches holds, and a filter claiming Exact needs no cells.
func FuzzCompileFilter(f *testing.F) {
	tab := fuzzFilterTable(f, 600)
	b, err := binning.Bin(tab, binning.Options{MaxBins: 4, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	store := storeFor(f, b, 64)
	cells := tab.GatherCells
	nums := []float64{200, 187.5, 0, 1e15, -2.25, math.NaN(), 1.0 / 3}
	for i := 0; i < 64; i++ { // the plain test run replays these 64 conjunctions
		f.Add(int64(i), nums[i%len(nums)], uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, num float64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		preds := make([]query.Predicate, 1+int(shape)%3)
		for i := range preds {
			preds[i] = randomPredicate(rng, tab, b, num)
		}
		var want []int
		for r := 0; r < tab.NumRows(); r++ {
			ok := true
			for _, p := range preds {
				ok = ok && p.Matches(tab, r)
			}
			if ok {
				want = append(want, r)
			}
		}
		flt := b.CompileFilter(preds)
		for _, src := range []struct {
			name string
			cs   binning.CodeSource
		}{{"inline", b.Source()}, {"store", store}} {
			fn := cells
			if flt.Exact() {
				fn = nil // an exact filter must never ask for a cell
			}
			got, err := flt.MatchingRows(src.cs, 0, fn, 0)
			if err != nil {
				t.Fatalf("%v over %s: %v", preds, src.name, err)
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v over %s:\n got %v\nwant %v", preds, src.name, got, want)
			}
		}
	})
}
