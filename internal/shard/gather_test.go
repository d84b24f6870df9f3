package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
)

// gatherRowLists returns the row lists the GatherCodes contract is checked
// over, all drawn from pool (ascending candidate rows): empty, every row,
// every row twice over, a sorted sample, the same shuffled, one with
// repeats, descending, and runs straddling each boundary (a block or shard
// edge) in straddle.
func gatherRowLists(rng *rand.Rand, pool []int, straddle []int) map[string][]int {
	lists := map[string][]int{
		"empty":     {},
		"all":       append([]int(nil), pool...),
		"all twice": append(append([]int(nil), pool...), pool...),
	}
	var sorted []int
	for _, r := range pool {
		if rng.Intn(3) == 0 {
			sorted = append(sorted, r)
		}
	}
	lists["sorted"] = sorted
	shuffled := append([]int(nil), sorted...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	lists["unsorted"] = shuffled
	var repeated []int
	for i := 0; i < 2*len(sorted); i++ {
		repeated = append(repeated, pool[rng.Intn(len(pool))])
	}
	lists["repeated"] = repeated
	desc := append([]int(nil), pool...)
	sort.Sort(sort.Reverse(sort.IntSlice(desc)))
	lists["descending"] = desc
	var cross []int
	for _, b := range straddle {
		for _, r := range pool {
			if r >= b-3 && r < b+3 {
				cross = append(cross, r)
			}
		}
	}
	lists["straddling"] = cross
	return lists
}

// checkGather asserts the GatherCodes contract on src: for every column
// and row list, dst[i] == Code(c, rows[i]) == want[c][rows[i]].
func checkGather(t *testing.T, name string, src binning.CodeSource, want [][]uint16, lists map[string][]int) {
	t.Helper()
	for ln, rows := range lists {
		for c := 0; c < src.NumCols(); c++ {
			dst := make([]uint16, len(rows))
			src.GatherCodes(c, rows, dst)
			for i, r := range rows {
				if dst[i] != src.Code(c, r) || dst[i] != want[c][r] {
					t.Fatalf("%s, %s rows, col %d: dst[%d] (row %d) = %d, Code = %d, want %d",
						name, ln, c, i, r, dst[i], src.Code(c, r), want[c][r])
				}
			}
		}
	}
}

// TestGatherCodesContract checks GatherCodes against Code on every
// CodeSource: inline codes, a code store (blocks of 64 rows, the last
// short), a shard source whose cuts fall inside blocks (with empty
// shards), and a sparse overlay, over sorted, unsorted, repeated,
// block- and shard-straddling and empty row lists.
func TestGatherCodesContract(t *testing.T) {
	const rows, cols, blockRows = 1000, 4, 64
	rng := rand.New(rand.NewSource(42))
	codes := randCodes(rng, cols, rows, 300)
	all := make([]int, rows)
	for i := range all {
		all[i] = i
	}
	blockEdges := []int{blockRows, 5 * blockRows, rows - 1}

	inline := binning.MemCodes(codes)
	checkGather(t, "inline", inline, codes, gatherRowLists(rng, all, blockEdges))

	dir := t.TempDir()
	path := filepath.Join(dir, "whole.codes")
	if err := codestore.WriteFile(path, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	st, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkGather(t, "codestore", st, codes, gatherRowLists(rng, all, blockEdges))

	cuts := []int{0, 0, 100, 333, 333, 700, 1000} // none on a 64-row edge but the ends
	var srcs []binning.CodeSource
	var counts []int
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		sub := make([][]uint16, cols)
		for c := range sub {
			sub[c] = codes[c][lo:hi]
		}
		p := filepath.Join(dir, fmt.Sprintf("t.codes.%03d", i))
		if err := codestore.WriteFile(p, sub, blockRows); err != nil {
			t.Fatal(err)
		}
		s, err := codestore.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srcs = append(srcs, s)
		counts = append(counts, hi-lo)
	}
	sharded, err := NewSource(srcs, counts, cols)
	if err != nil {
		t.Fatal(err)
	}
	checkGather(t, "shard", sharded, codes, gatherRowLists(rng, all, append(blockEdges, 100, 333, 700)))

	var covered []int
	var ids []int64
	for r := 0; r < rows; r++ {
		if rng.Intn(4) == 0 {
			covered = append(covered, r)
			ids = append(ids, int64(r))
		}
	}
	sub := make([][]uint16, cols)
	for c := range sub {
		for _, r := range covered {
			sub[c] = append(sub[c], codes[c][r])
		}
	}
	sparse, err := NewSparseSource(rows, cols, ids, sub)
	if err != nil {
		t.Fatal(err)
	}
	checkGather(t, "sparse", sparse, codes, gatherRowLists(rng, covered, blockEdges))
}
