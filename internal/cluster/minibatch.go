package cluster

import (
	"math"
	"math/rand"

	"subtab/internal/f32"
)

// MiniBatchOptions configures MiniBatchKMeans.
type MiniBatchOptions struct {
	// BatchSize is the number of points drawn per iteration (default 1024,
	// capped at the point count).
	BatchSize int
	// MaxIter bounds mini-batch iterations (default 100).
	MaxIter int
	// Seed drives k-means++ initialization and the batch draws.
	Seed int64
	// Tolerance stops early when an iteration moves the centers less than
	// this fraction of the summed center norms at seeding (default 1e-3).
	// Two deliberate differences from the exact path's absolute 1e-4:
	// relative, because embedding scales vary per corpus and an absolute
	// threshold either never fires or fires instantly; looser, because
	// per-center learning rates decay like 1/count, so center movement
	// falls off hyperbolically and a tail-tight threshold would burn the
	// whole iteration budget after assignments stop changing.
	Tolerance float64
	// Workers bounds the parallelism of the assignment steps (default
	// GOMAXPROCS). Results are identical at any setting.
	Workers int
}

func (o MiniBatchOptions) withDefaults(n int) MiniBatchOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 1024
	}
	if o.BatchSize > n {
		o.BatchSize = n
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-3
	}
	return o
}

// MiniBatchKMeans clusters the rows of pts into k clusters with mini-batch
// Lloyd iterations (Sculley, WWW 2010): each iteration draws a small random
// batch, assigns it against the current centers, and nudges each center
// toward its batch members with a per-center learning rate 1/count. The cost
// per iteration is O(batch·k·dim) instead of O(n·k·dim), which is what lets
// the selection pipeline cluster candidate samples of million-row tables
// interactively. After converging it runs one full assignment pass (plus the
// shared empty-cluster repair) over every point, so Result.Assign/Sizes
// describe the whole input and RepresentativesMatrix works exactly as it
// does on the exact path. When k >= pts.R every point becomes its own
// cluster, as in KMeansMatrix.
//
// Determinism contract (same as KMeansMatrix): the rng draws, the center
// updates and the learning-rate counters are serial in batch order; the
// batch and final assignment scans fan out across workers but write disjoint
// slots and break ties toward the lowest center index, so the result is one
// fixed function of (pts, k, options) at any worker count.
func MiniBatchKMeans(pts f32.Matrix, k int, opt MiniBatchOptions) *Result {
	n := pts.R
	if n == 0 || k <= 0 {
		return &Result{K: 0}
	}
	if k >= n {
		centers := f32.New(n, pts.C)
		copy(centers.Data, pts.Data)
		res := &Result{K: n, Assign: make([]int, n), Centers: centers.Rows(), Sizes: make([]int, n)}
		for i := 0; i < n; i++ {
			res.Assign[i] = i
			res.Sizes[i] = 1
		}
		return res
	}
	opt = opt.withDefaults(n)
	dim := pts.C
	rng := rand.New(rand.NewSource(opt.Seed))
	workers := opt.Workers
	if workers <= 0 {
		workers = f32.Workers(n)
	}

	// Seeding: k-means++ over a deterministic strided subsample capped at
	// 4×BatchSize points. Seeding only needs to spread the initial centers
	// across the data's modes — the mini-batch iterations do the actual
	// refinement — and full k-means++ is O(k·n), which would rival the
	// entire iteration budget on large samples.
	centers := func() f32.Matrix {
		seedN := 4 * opt.BatchSize
		if n <= seedN {
			return seedPlusPlus(pts, k, rng, workers)
		}
		// i*n/seedN (not a floored stride) so the subsample spans the whole
		// input: a floor stride leaves the tail — up to half the rows —
		// invisible to seeding.
		sub := f32.New(seedN, dim)
		for i := 0; i < seedN; i++ {
			copy(sub.Row(i), pts.Row(i*n/seedN))
		}
		return seedPlusPlus(sub, k, rng, workers)
	}()
	prev := f32.New(k, dim)
	counts := make([]int, k) // per-center lifetime assignment counts
	batch := make([]int, opt.BatchSize)
	bAssign := make([]int, opt.BatchSize)
	var nearest f32.Centers // centers as frozen at the start of each assignment pass

	// Convergence reference: Tolerance is relative to the seeded centers'
	// summed norms, so the stopping rule is invariant to embedding scale.
	movedRef := 0.0
	for c := 0; c < k; c++ {
		movedRef += math.Sqrt(f32.SqDist(centers.Row(c), prev.Row(c))) // prev is zero
	}
	if movedRef == 0 {
		movedRef = 1 // all-zero seeds: fall back to an absolute threshold
	}

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		// The batch draws are serial rng calls — part of the determinism
		// contract (sampling with replacement, as in the original algorithm).
		for j := range batch {
			batch[j] = rng.Intn(n)
		}
		// Assign the whole batch against a frozen center snapshot; each batch
		// slot is written by exactly one index, and Nearest's lowest-index
		// tie-break reproduces the serial scan (see KMeansMatrix).
		nearest.Load(centers)
		f32.ParallelRange(len(batch), min(workers, f32.Workers(len(batch))), func(start, end int) {
			scratch := nearest.Scratch()
			for j := start; j < end; j++ {
				bAssign[j], _ = nearest.Nearest(pts.Row(batch[j]), 0, scratch)
			}
		})
		copy(prev.Data, centers.Data)
		// Center update, serial in batch order: each member pulls its center
		// toward itself with the per-center learning rate 1/count, so early
		// batches move centers coarsely and later ones fine-tune (the
		// convergence argument of the original algorithm).
		for j, i := range batch {
			c := bAssign[j]
			counts[c]++
			eta := 1 / float32(counts[c])
			cr := centers.Row(c)
			p := pts.Row(i)
			for d := 0; d < dim; d++ {
				cr[d] += eta * (p[d] - cr[d])
			}
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			moved += math.Sqrt(f32.SqDist(centers.Row(c), prev.Row(c)))
		}
		if moved < opt.Tolerance*movedRef {
			iter++
			break
		}
	}

	// Final full-assignment pass: every point, against the converged centers.
	assign := make([]int, n)
	nearest.Load(centers)
	f32.ParallelRange(n, workers, func(start, end int) {
		scratch := nearest.Scratch()
		for i := start; i < end; i++ {
			assign[i], _ = nearest.Nearest(pts.Row(i), 0, scratch)
		}
	})
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	repairEmptyClusters(pts, centers, assign, sizes)
	return &Result{K: k, Assign: assign, Centers: centers.Rows(), Sizes: sizes, Iterations: iter}
}
