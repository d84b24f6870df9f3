// Property sweep pinning the scatter/gather contract: for any split of a
// table's rows into shards — one shard, many shards, empty shards,
// block-unaligned boundaries — the merged per-shard summaries must
// reproduce the single-store stratified reservoir byte for byte, both
// through the explicit Scan/Merge/Finish protocol (what the HTTP
// coordinator runs) and through the shard-backed fast path inside
// stratifiedReservoir (what a local sharded model runs).
package core

import (
	"math/rand"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/datagen"
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
			sub[c] = b.Codes[c][lo:hi]
		}
		srcs = append(srcs, &shardMemSource{codes: sub, blockRows: 1 + rng.Intn(50)})
		counts = append(counts, hi-lo)
	}
	return srcs, counts
}

func TestShardMergeMatchesSingleScan(t *testing.T) {
	const n = 1100
	b := sampleTestBinned(t, n, 5)
	rows, cols := identity(n), allCols(b)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		shards := 1 + rng.Intn(6)
		cuts := randomCuts(rng, n, shards)
		srcs, counts := shardSplit(b, cuts, rng)
		for _, budget := range []int{40, 171, 500} {
			for _, seed := range []int64{3, -11, 1 << 33} {
				want := reservoir(b, rows, cols, budget, seed)

				// The explicit protocol, as a coordinator runs it: one Scan
				// per shard (shuffled merge order — the merge is
				// commutative), MergeSummaries, FinishSample.
				sums := make([]shard.Summary, len(srcs))
				for i, cs := range srcs {
					sums[i] = shard.Scan(b, cs, cuts[i], cols, budget, seed)
				}
				rng.Shuffle(len(sums), func(i, j int) { sums[i], sums[j] = sums[j], sums[i] })
				strata, cands := shard.MergeSummaries(sums, b.NumItems())
				got := shard.FinishSample(strata, cands, budget)
				assertSameSample(t, "protocol", trial, budget, seed, cuts, got, want)

				// The in-process fast path: a binned twin switched onto the
				// sharded source, sampled through stratifiedReservoir itself.
				src, err := shard.NewSource(srcs, counts, b.NumCols())
				if err != nil {
					t.Fatal(err)
				}
				twin := rebinnedTwin(t, n, 5)
				if err := twin.AttachStore(src); err != nil {
					t.Fatal(err)
				}
				if err := twin.DropInlineCodes(); err != nil {
					t.Fatal(err)
				}
				got2 := reservoir(twin, nil, cols, budget, seed)
				assertSameSample(t, "fan-out", trial, budget, seed, cuts, got2, want)
			}
		}
	}
}

// rebinnedTwin rebuilds the same binned table (same data, same binning
// seed) so attaching a store to it cannot alias the original's codes.
func rebinnedTwin(t *testing.T, n int, seed int64) *binning.Binned {
	t.Helper()
	ds := datagen.Generic(n, 6, 5, seed)
	b, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertSameSample(t *testing.T, path string, trial, budget int, seed int64, cuts []int, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s trial %d budget %d seed %d cuts %v: %d rows sharded, %d single-scan", path, trial, budget, seed, cuts, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s trial %d budget %d seed %d cuts %v: sample[%d] = %d sharded, %d single-scan", path, trial, budget, seed, cuts, i, got[i], want[i])
		}
	}
}

// Budget at or above the row count must reproduce the early-return path
// (the whole candidate set), sharded or not.
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
	want := reservoir(b, rows, cols, n+50, 17)
	assertSameSample(t, "full-budget", 0, n+50, 17, cuts, got, want)
}

// A one-shard split is the degenerate identity: Scan over the whole table
// plus FinishSample is exactly the single scan.
func TestShardMergeSingleShard(t *testing.T) {
	const n = 700
	b := sampleTestBinned(t, n, 8)
	cols := allCols(b)
	sub := make([][]uint16, b.NumCols())
	copy(sub, b.Codes)
	cs := &shardMemSource{codes: sub, blockRows: 61}
	for _, budget := range []int{25, 333} {
		sum := shard.Scan(b, cs, 0, cols, budget, 23)
		strata, cands := shard.MergeSummaries([]shard.Summary{sum}, b.NumItems())
		got := shard.FinishSample(strata, cands, budget)
		want := reservoir(b, nil, cols, budget, 23)
		assertSameSample(t, "one-shard", 0, budget, 23, []int{0, n}, got, want)
	}
}
