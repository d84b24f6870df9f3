// Property-based tests for the stratified reservoir sampler behind the
// scaled selection path. The sampler is pure min-wise hashing, so every
// property is checked across a sweep of seeds, budgets and candidate
// subsets rather than a single lucky configuration.
package core

import (
	"math/rand"
	"slices"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/datagen"
	"subtab/internal/table"
)

// sampleTestBinned builds a binned table with deliberately skewed strata:
// the Generic dataset's pattern column gives a handful of categorical bins,
// and we thin one pattern down to a rare stratum so coverage is actually
// exercised (a uniform sampler would routinely miss it).
func sampleTestBinned(t testing.TB, n int, seed int64) *binning.Binned {
	t.Helper()
	ds := datagen.Generic(n, 6, 5, seed)
	b, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func identity(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// reservoir runs the unbiased sampler and returns the sample as a list.
// rows nil means every row of the table — the fact the executor passes — so
// the full-table paths (sharded scatter, whole-block scans) are what run; an
// explicit list, identity included, takes the candidate-subset paths.
func reservoir(b *binning.Binned, rows, cols []int, budget int, seed int64) []int {
	set := listRows(rows)
	if rows == nil {
		set = allRows(b.NumRows())
	}
	out := stratifiedReservoir(b, set, cols, budget, seed, nil)
	if out.ids == nil {
		return identity(out.n)
	}
	return out.ids
}

func allCols(b *binning.Binned) []int {
	cols := make([]int, b.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// assertSortedUnique checks the sampler's output-shape invariant.
func assertSortedUnique(t *testing.T, sample []int) {
	t.Helper()
	for i := 1; i < len(sample); i++ {
		if sample[i] <= sample[i-1] {
			t.Fatalf("sample not sorted/unique at %d: %d then %d", i, sample[i-1], sample[i])
		}
	}
}

func TestStratifiedReservoirSmallTableReturnsAllRows(t *testing.T) {
	b := sampleTestBinned(t, 200, 1)
	rows, cols := identity(200), allCols(b)
	for _, budget := range []int{200, 500, 10_000} {
		got := reservoir(b, rows, cols, budget, 7)
		if len(got) != 200 {
			t.Fatalf("budget %d: want all 200 rows, got %d", budget, len(got))
		}
		assertSortedUnique(t, got)
		for i, r := range got {
			if r != i {
				t.Fatalf("budget %d: row %d missing from full return", budget, i)
			}
		}
	}
}

func TestStratifiedReservoirDeterministicPerSeed(t *testing.T) {
	b := sampleTestBinned(t, 3000, 2)
	rows, cols := identity(3000), allCols(b)
	distinct := 0
	for _, seed := range []int64{0, 1, 41, -9} {
		a := reservoir(b, rows, cols, 300, seed)
		bb := reservoir(b, rows, cols, 300, seed)
		if len(a) != len(bb) {
			t.Fatalf("seed %d: lengths differ: %d vs %d", seed, len(a), len(bb))
		}
		for i := range a {
			if a[i] != bb[i] {
				t.Fatalf("seed %d: sample differs at %d: %d vs %d", seed, i, a[i], bb[i])
			}
		}
		// The explicit identity list runs the candidate-subset gather, nil
		// the whole-table block scan: same candidates, same sample — also
		// under a budget smaller than the stratum count, where phase 1's
		// per-stratum picks are the whole sample.
		for _, budget := range []int{300, 12} {
			sub, whole := reservoir(b, rows, cols, budget, seed), reservoir(b, nil, cols, budget, seed)
			if !slices.Equal(sub, whole) {
				t.Fatalf("seed %d budget %d: subset path sampled %v, whole-table path %v", seed, budget, sub, whole)
			}
		}
		base := reservoir(b, rows, cols, 300, 12345)
		for i := range a {
			if a[i] != base[i] {
				distinct++
				break
			}
		}
	}
	if distinct == 0 {
		t.Fatal("every seed produced the reference sample; the seed is not reaching the hash")
	}
}

func TestStratifiedReservoirSortedUniqueWithinBudget(t *testing.T) {
	b := sampleTestBinned(t, 5000, 3)
	cols := allCols(b)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		// Random candidate subsets model query results; random budgets model
		// knob settings.
		var rows []int
		for r := 0; r < 5000; r++ {
			if rng.Float64() < 0.6 {
				rows = append(rows, r)
			}
		}
		budget := 50 + rng.Intn(2000)
		sample := reservoir(b, rows, cols, budget, int64(trial))
		if len(rows) > budget && len(sample) != budget {
			t.Fatalf("trial %d: want exactly budget %d rows, got %d", trial, budget, len(sample))
		}
		assertSortedUnique(t, sample)
		inRows := make(map[int]bool, len(rows))
		for _, r := range rows {
			inRows[r] = true
		}
		for _, r := range sample {
			if !inRows[r] {
				t.Fatalf("trial %d: sampled row %d is not a candidate", trial, r)
			}
		}
	}
}

func TestStratifiedReservoirCoversEveryNonEmptyBin(t *testing.T) {
	b := sampleTestBinned(t, 8000, 4)
	cols := allCols(b)
	for _, tc := range []struct {
		name string
		rows []int
	}{
		{"all-rows", identity(8000)},
		{"every-third-row", func() []int {
			var rows []int
			for r := 0; r < 8000; r += 3 {
				rows = append(rows, r)
			}
			return rows
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 77} {
				sample := reservoir(b, tc.rows, cols, 400, seed)
				// Strata present among candidates vs strata present in sample.
				want := make(map[int32]bool)
				for _, c := range cols {
					for _, r := range tc.rows {
						want[b.Item(c, r)] = true
					}
				}
				got := make(map[int32]bool)
				for _, c := range cols {
					for _, r := range sample {
						got[b.Item(c, r)] = true
					}
				}
				if len(want) > 400 {
					t.Fatalf("test misconfigured: %d strata exceed the budget", len(want))
				}
				for item := range want {
					if !got[item] {
						t.Errorf("seed %d: stratum %s lost by sampling", seed, b.ItemLabel(item))
					}
				}
			}
		})
	}
}

// TestStratifiedReservoirRareStratumSurvives plants one near-singleton
// category and checks the guarantee that motivates stratification: a uniform
// 100-of-10000 sample would miss a 3-row category with probability ~97%,
// the stratified sampler must never miss it.
func TestStratifiedReservoirRareStratumSurvives(t *testing.T) {
	n := 10_000
	cats := make([]string, n)
	for i := range cats {
		cats[i] = "common"
	}
	cats[17], cats[4242], cats[9001] = "rare", "rare", "rare"
	ds := datagen.Generic(n, 4, 2, 5)
	tbl := ds.T
	if err := tbl.AddColumn(table.NewCategorical("flag", cats)); err != nil {
		t.Fatal(err)
	}
	b, err := binning.Bin(tbl, binning.Options{MaxBins: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cols := allCols(b)
	flagCol := tbl.ColumnIndex("flag")
	for seed := int64(0); seed < 30; seed++ {
		sample := reservoir(b, nil, cols, 100, seed)
		found := false
		for _, r := range sample {
			if tbl.ColumnAt(flagCol).CellString(r) == "rare" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("seed %d: rare stratum (3 of %d rows) missing from the sample", seed, n)
		}
	}
}
