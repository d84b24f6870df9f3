package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestCandidateSortMatchesSortSlice: diverseRepresentatives keeps the first
// q candidates of a sort that calls equal distances equal, so under exact
// ties (duplicate rows) which candidates those are depends on the sort's
// own compare-and-swap sequence, and the goldens were recorded with
// sort.Slice's. This holds slices.SortFunc to the same sequence, element for
// element, on tie-heavy inputs of the shapes pdqsort branches on (random,
// few distinct keys, sorted, reversed, sorted then perturbed, short enough
// for insertion sort, long enough for the ninther and the heapsort
// fallback's depth limit) — so a toolchain that lets the two templates drift
// apart fails here rather than in a golden.
func TestCandidateSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{0, 1, 2, 3, 7, 11, 12, 13, 33, 50, 51, 100, 257, 1000, 4096, 25000}
	for round := 0; round < 40; round++ {
		for _, n := range sizes {
			if n > 5000 && round >= 4 {
				continue
			}
			distinct := 1 + rng.Intn(max(n, 1))
			if round%2 == 0 {
				distinct = 1 + rng.Intn(8)
			}
			in := make([]cand, n)
			for i := range in {
				in[i] = cand{idx: i, d: float64(rng.Intn(distinct)) * 0.125}
			}
			switch round % 5 {
			case 1, 2:
				sort.SliceStable(in, func(x, y int) bool { return in[x].d < in[y].d })
				if round%5 == 2 {
					slices.Reverse(in)
				}
			case 3:
				sort.SliceStable(in, func(x, y int) bool { return in[x].d < in[y].d })
				for s := 0; s < 1+n/50; s++ {
					x, y := rng.Intn(max(n, 1)), rng.Intn(max(n, 1))
					if n > 0 {
						in[x], in[y] = in[y], in[x]
					}
				}
			}
			want := slices.Clone(in)
			sort.Slice(want, func(x, y int) bool { return want[x].d < want[y].d })
			got := slices.Clone(in)
			slices.SortFunc(got, cand.byDistance)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d, %d candidates, %d distinct distances: element %d is %+v with slices.SortFunc, %+v with sort.Slice",
						round, n, distinct, i, got[i], want[i])
				}
			}
		}
	}
}
