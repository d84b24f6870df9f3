// Property sweep pinning the sampler against its definition: for any
// candidate set (every row or a subset), any split of the table's rows into
// shards — one shard, many shards, empty shards, block-unaligned
// boundaries — any budget and any coverage set, the single-store scan, the
// sharded fan-out inside stratifiedReservoir and the explicit
// Scan/Merge/Finish protocol (what the HTTP coordinator runs) must all
// pick exactly what oracleSample picks.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/shard"
)

// shardMemSource is an in-memory CodeSource over a row slice of a table's
// codes, with its own block granularity so splits need not align with any
// store geometry.
type shardMemSource struct {
	codes     [][]uint16
	blockRows int
}

func (s *shardMemSource) NumRows() int {
	if len(s.codes) == 0 {
		return 0
	}
	return len(s.codes[0])
}
func (s *shardMemSource) NumCols() int   { return len(s.codes) }
func (s *shardMemSource) BlockRows() int { return s.blockRows }
func (s *shardMemSource) NumBlocks() int {
	return (s.NumRows() + s.blockRows - 1) / s.blockRows
}
func (s *shardMemSource) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	lo := blk * s.blockRows
	hi := min(lo+s.blockRows, s.NumRows())
	return s.codes[c][lo:hi]
}
func (s *shardMemSource) Code(c, r int) uint16 { return s.codes[c][r] }
func (s *shardMemSource) GatherCodes(c int, rows []int, dst []uint16) {
	for i, r := range rows {
		dst[i] = s.codes[c][r]
	}
}

// randomCuts returns sorted shard boundaries 0 = c0 <= ... <= ck = n,
// biased to produce empty shards and unaligned splits.
func randomCuts(rng *rand.Rand, n, shards int) []int {
	cuts := make([]int, shards+1)
	cuts[shards] = n
	for i := 1; i < shards; i++ {
		if rng.Intn(5) == 0 {
			cuts[i] = cuts[i-1] // deliberate empty shard
			continue
		}
		cuts[i] = rng.Intn(n + 1)
	}
	inner := cuts[1:shards]
	for i := 1; i < len(inner); i++ {
		for j := i; j > 0 && inner[j] < inner[j-1]; j-- {
			inner[j], inner[j-1] = inner[j-1], inner[j]
		}
	}
	return cuts
}

// shardSplit wraps each [cuts[i], cuts[i+1]) row range of b's codes as its
// own in-memory shard source.
func shardSplit(b *binning.Binned, cuts []int, rng *rand.Rand) ([]binning.CodeSource, []int) {
	var srcs []binning.CodeSource
	var counts []int
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		sub := make([][]uint16, b.NumCols())
		for c := range sub {
			sub[c] = b.Source().(binning.MemCodes)[c][lo:hi]
		}
		srcs = append(srcs, &shardMemSource{codes: sub, blockRows: 1 + rng.Intn(50)})
		counts = append(counts, hi-lo)
	}
	return srcs, counts
}

// oracleSample is the sampler's definition, written for clarity rather
// than speed: sort the candidates by (hash, row). A stratum's
// representative is the first candidate in that order holding one of its
// items. Phase 1 takes the representatives in ascending item order (the
// uncovered strata first, then the covered ones, when covered is set),
// skipping rows already taken; phase 2 takes the first untaken candidates
// in (hash, row) order. Both stop at the budget. A candidate set within the
// budget is returned whole.
func oracleSample(b *binning.Binned, rows, cols []int, budget int, seed int64, covered func(item int) bool) []int {
	out := slices.Clone(rows)
	if budget <= 0 || len(rows) <= budget {
		slices.Sort(out)
		return out
	}
	slices.SortFunc(out, func(x, y int) int {
		hx, hy := shard.RowHash(seed, int64(x)), shard.RowHash(seed, int64(y))
		if hx != hy {
			if hx < hy {
				return -1
			}
			return 1
		}
		return x - y
	})
	rep := make([]int, b.NumItems())
	for s := range rep {
		rep[s] = -1
	}
	for _, r := range out {
		for _, c := range cols {
			if s := b.Item(c, r); rep[s] < 0 {
				rep[s] = r
			}
		}
	}
	taken := map[int]bool{}
	var sample []int
	take := func(r int) {
		if r >= 0 && !taken[r] && len(sample) < budget {
			taken[r] = true
			sample = append(sample, r)
		}
	}
	for _, wantCovered := range []bool{false, true} {
		for s, r := range rep {
			if covered == nil || covered(s) == wantCovered {
				take(r)
			}
		}
		if covered == nil {
			break
		}
	}
	for _, r := range out {
		take(r)
	}
	slices.Sort(sample)
	return sample
}

// samplerCase is one point of the sweep: a table split into shards, a
// candidate set (nil: every row), a budget, a seed and a coverage set.
type samplerCase struct {
	cuts    []int
	srcs    []binning.CodeSource
	rows    []int
	budget  int
	seed    int64
	covered func(item int) bool
}

// checkAgainstOracle samples c three ways — b's inline codes, twin
// switched onto c's shards (the fan-out for the whole table, one scan
// through the shard source for a subset), and the per-shard protocol with
// the summaries merged in a shuffled order — and fails unless each picks
// what oracleSample picks.
func checkAgainstOracle(t *testing.T, b, twin *binning.Binned, c samplerCase, rng *rand.Rand) {
	t.Helper()
	cols := allCols(b)
	set, cands := allRows(b.NumRows()), identity(b.NumRows())
	if c.rows != nil {
		set, cands = listRows(c.rows), c.rows
	}
	want := oracleSample(b, cands, cols, c.budget, c.seed, c.covered)
	name := fmt.Sprintf("cuts %v, %d candidates, budget %d, seed %d, covered %v", c.cuts, len(cands), c.budget, c.seed, c.covered != nil)
	assertSameSample(t, "single store, "+name, stratifiedReservoir(b, set, cols, c.budget, c.seed, c.covered).list(), want)

	counts := make([]int, len(c.srcs))
	for i := range counts {
		counts[i] = c.cuts[i+1] - c.cuts[i]
	}
	src, err := shard.NewSource(c.srcs, counts, b.NumCols())
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	assertSameSample(t, "sharded, "+name, stratifiedReservoir(twin, set, cols, c.budget, c.seed, c.covered).list(), want)

	if c.budget <= 0 {
		return // the protocol's callers never send a budget below one
	}
	sorted := slices.Clone(c.rows) // an empty subset stays a non-nil list
	slices.Sort(sorted)
	sums := make([]shard.Summary, len(c.srcs))
	for i, cs := range c.srcs {
		var rows []int // nil: the shard's whole range
		if c.rows != nil {
			lo, _ := slices.BinarySearch(sorted, c.cuts[i])
			hi, _ := slices.BinarySearch(sorted, c.cuts[i+1])
			rows = sorted[lo:hi:hi]
		}
		sums[i] = shard.ScanRows(b, cs, c.cuts[i], rows, cols, c.budget, c.seed)
	}
	rng.Shuffle(len(sums), func(i, j int) { sums[i], sums[j] = sums[j], sums[i] })
	strata, merged := shard.MergeSummaries(sums, b.NumItems())
	got := shard.FinishSampleBiased(strata, merged, c.budget, c.covered)
	assertSameSample(t, "protocol, "+name, got, want)
}

// randomCovered marks each item covered with probability p, or returns
// nil for p == 0.
func randomCovered(rng *rand.Rand, numItems int, p float64) func(item int) bool {
	if p == 0 {
		return nil
	}
	set := make([]bool, numItems)
	for i := range set {
		set[i] = rng.Float64() < p
	}
	return func(item int) bool { return set[item] }
}

// randomSubset keeps each of rows 0..n-1 with probability p, shuffled
// when shuffle is set (query results under an order-by arrive unsorted).
func randomSubset(rng *rand.Rand, n int, p float64, shuffle bool) []int {
	rows := []int{}
	for r := 0; r < n; r++ {
		if rng.Float64() < p {
			rows = append(rows, r)
		}
	}
	if shuffle {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	return rows
}

func TestStratifiedReservoirMatchesOracle(t *testing.T) {
	const n = 1100
	b := sampleTestBinned(t, n, 5)
	twin := shardTwin(t, n, 5)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		cuts := randomCuts(rng, n, 1+rng.Intn(6))
		srcs, _ := shardSplit(b, cuts, rng)
		for _, rows := range [][]int{nil, randomSubset(rng, n, 0.6, trial%2 == 1)} {
			size := n
			if rows != nil {
				size = len(rows)
			}
			for _, budget := range []int{3, 12, 40, 171, size - 1, size, size + 50} {
				for _, p := range []float64{0, 0.3} {
					seed := []int64{3, -11, 1 << 33}[rng.Intn(3)]
					checkAgainstOracle(t, b, twin, samplerCase{cuts, srcs, rows, budget, seed, randomCovered(rng, b.NumItems(), p)}, rng)
				}
			}
		}
	}
}

// FuzzStratifiedReservoir checks random cuts, candidate subsets, budgets
// and coverage sets against the oracle.
//
//	go test -run '^$' -fuzz FuzzStratifiedReservoir ./internal/core/
func FuzzStratifiedReservoir(f *testing.F) {
	const n = 300
	b := sampleTestBinned(f, n, 6)
	twin := shardTwin(f, n, 6)
	f.Add(int64(1), uint8(0), uint8(255), uint16(40), uint8(0))
	f.Add(int64(2), uint8(3), uint8(150), uint16(90), uint8(80))
	f.Add(int64(3), uint8(5), uint8(30), uint16(400), uint8(255))
	f.Add(int64(4), uint8(2), uint8(0), uint16(7), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, shards, keep uint8, budget uint16, cover uint8) {
		rng := rand.New(rand.NewSource(seed))
		cuts := randomCuts(rng, n, 1+int(shards)%6)
		srcs, _ := shardSplit(b, cuts, rng)
		var rows []int
		if keep < 255 {
			rows = randomSubset(rng, n, float64(keep)/255, seed%2 == 0)
		}
		covered := randomCovered(rng, b.NumItems(), float64(cover)/255)
		checkAgainstOracle(t, b, twin, samplerCase{cuts, srcs, rows, int(budget) % (n + 60), seed, covered}, rng)
	})
}

// shardTwin builds the same binned table (same data, same binning seed)
// served from a code source instead of inline codes, so each case can
// attach its own shard split.
func shardTwin(tb testing.TB, n int, seed int64) *binning.Binned {
	tb.Helper()
	b := sampleTestBinned(tb, n, seed)
	if err := b.AttachStore(&shardMemSource{codes: b.Source().(binning.MemCodes), blockRows: n}); err != nil {
		tb.Fatal(err)
	}
	return b
}

func assertSameSample(t *testing.T, what string, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: sampled %d rows %v, oracle %d rows %v", what, len(got), got, len(want), want)
	}
}

// TestShardMergeMatchesSingleScan pins the scatter/gather contract without
// the oracle: for any split, the per-shard protocol (shuffled merge order —
// the merge is commutative) and the shard-backed fan-out inside
// stratifiedReservoir reproduce the single-store sample row for row.
func TestShardMergeMatchesSingleScan(t *testing.T) {
	const n = 1100
	b := sampleTestBinned(t, n, 5)
	twin := shardTwin(t, n, 5)
	rows, cols := identity(n), allCols(b)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		cuts := randomCuts(rng, n, 1+rng.Intn(6))
		srcs, counts := shardSplit(b, cuts, rng)
		src, err := shard.NewSource(srcs, counts, b.NumCols())
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.AttachStore(src); err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{40, 171, 500} {
			for _, seed := range []int64{3, -11, 1 << 33} {
				name := fmt.Sprintf("trial %d, cuts %v, budget %d, seed %d", trial, cuts, budget, seed)
				want := reservoir(b, rows, cols, budget, seed)

				sums := make([]shard.Summary, len(srcs))
				for i, cs := range srcs {
					sums[i] = shard.Scan(b, cs, cuts[i], cols, budget, seed)
				}
				rng.Shuffle(len(sums), func(i, j int) { sums[i], sums[j] = sums[j], sums[i] })
				strata, cands := shard.MergeSummaries(sums, b.NumItems())
				assertSameSample(t, "protocol, "+name, shard.FinishSample(strata, cands, budget), want)
				assertSameSample(t, "fan-out, "+name, reservoir(twin, nil, cols, budget, seed), want)
			}
		}
	}
}

// TestShardMergeFullBudget: a budget at or above the row count reproduces
// the early-return path (the whole candidate set), sharded or not.
func TestShardMergeFullBudget(t *testing.T) {
	const n = 400
	b := sampleTestBinned(t, n, 2)
	rows, cols := identity(n), allCols(b)
	rng := rand.New(rand.NewSource(1))
	cuts := randomCuts(rng, n, 3)
	srcs, _ := shardSplit(b, cuts, rng)
	sums := make([]shard.Summary, len(srcs))
	for i, cs := range srcs {
		sums[i] = shard.Scan(b, cs, cuts[i], cols, n+50, 17)
	}
	strata, cands := shard.MergeSummaries(sums, b.NumItems())
	got := shard.FinishSample(strata, cands, n+50)
	assertSameSample(t, fmt.Sprintf("full budget, cuts %v", cuts), got, reservoir(b, rows, cols, n+50, 17))
}

// TestShardMergeSingleShard: a one-shard split is the degenerate identity —
// Scan over the whole table plus FinishSample is exactly the single scan.
func TestShardMergeSingleShard(t *testing.T) {
	const n = 700
	b := sampleTestBinned(t, n, 8)
	cols := allCols(b)
	cs := &shardMemSource{codes: slices.Clone(b.Source().(binning.MemCodes)), blockRows: 61}
	for _, budget := range []int{25, 333} {
		sum := shard.Scan(b, cs, 0, cols, budget, 23)
		strata, cands := shard.MergeSummaries([]shard.Summary{sum}, b.NumItems())
		got := shard.FinishSample(strata, cands, budget)
		assertSameSample(t, fmt.Sprintf("one shard, budget %d", budget), got, reservoir(b, nil, cols, budget, 23))
	}
}
