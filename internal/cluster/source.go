package cluster

import (
	"math"
	"math/rand"

	"subtab/internal/f32"
)

// PointSource provides read access to n points for clustering without
// requiring them to be resident in one matrix — the contract that lets
// mini-batch k-means run over a spilled tuple-vector slab (f32.Slab
// implements it). Reads must be safe for concurrent use with distinct
// destinations.
type PointSource interface {
	Len() int
	Dim() int
	// Gather copies rows idx into dst (dst.R == len(idx)).
	Gather(dst f32.Matrix, idx []int)
	// ReadChunk copies rows [start, start+dst.R) into dst.
	ReadChunk(start int, dst f32.Matrix)
}

// matrixer is the fast-path escape hatch: sources that are really a
// resident matrix (an unspilled f32.Slab) expose it and skip every copy.
type matrixer interface {
	Matrix() (f32.Matrix, bool)
}

// sourceChunkRows is the scan granularity of the generic path; sources
// with an I/O-tuned preference (f32.Slab) override it.
const sourceChunkRows = 4096

func chunkRowsOf(src PointSource) int {
	if c, ok := src.(interface{ ChunkRows() int }); ok {
		if n := c.ChunkRows(); n > 0 {
			return n
		}
	}
	return sourceChunkRows
}

// MiniBatchKMeansSource is MiniBatchKMeans over a PointSource. For a
// resident source it delegates to the matrix implementation; for a spilled
// source it runs the same algorithm through chunked reads and batch
// gathers. Both paths perform identical arithmetic in identical order —
// batches are gathered before assignment, and SqDist over a copied row
// equals SqDist over the original — so the result is bit-identical to
// clustering the materialized matrix, a guarantee pinned by the
// equivalence tests.
func MiniBatchKMeansSource(src PointSource, k int, opt MiniBatchOptions) *Result {
	if m, ok := src.(matrixer); ok {
		if mat, resident := m.Matrix(); resident {
			return MiniBatchKMeans(mat, k, opt)
		}
	}
	n := src.Len()
	if n == 0 || k <= 0 {
		return &Result{K: 0}
	}
	dim := src.Dim()
	if k >= n {
		centers := f32.New(n, dim)
		src.ReadChunk(0, centers)
		return singletons(centers)
	}
	opt = opt.withDefaults(n)
	rng := rand.New(rand.NewSource(opt.Seed))
	workers := opt.Workers
	if workers <= 0 {
		workers = f32.Workers(n)
	}

	// Seeding mirrors the matrix path: k-means++ over the whole input when
	// it is small, over the deterministic strided subsample otherwise. The
	// subsample is gathered into memory — it is capped at 4×BatchSize rows,
	// so seeding never materializes the spilled slab.
	centers := func() f32.Matrix {
		seedN := 4 * opt.BatchSize
		if n <= seedN {
			all := f32.New(n, dim)
			src.ReadChunk(0, all)
			return seedPlusPlus(all, k, rng, workers)
		}
		idx := make([]int, seedN)
		for i := range idx {
			idx[i] = i * n / seedN
		}
		sub := f32.New(seedN, dim)
		src.Gather(sub, idx)
		return seedPlusPlus(sub, k, rng, workers)
	}()
	prev := f32.New(k, dim)
	counts := make([]int, k)
	batch := make([]int, opt.BatchSize)
	bAssign := make([]int, opt.BatchSize)
	batchPts := f32.New(opt.BatchSize, dim)
	var nearest f32.Centers

	movedRef := 0.0
	for c := 0; c < k; c++ {
		movedRef += math.Sqrt(f32.SqDist(centers.Row(c), prev.Row(c))) // prev is zero
	}
	if movedRef == 0 {
		movedRef = 1
	}

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		for j := range batch {
			batch[j] = rng.Intn(n)
		}
		src.Gather(batchPts, batch)
		nearest.Load(centers)
		f32.ParallelRange(len(batch), min(workers, f32.Workers(len(batch))), func(start, end int) {
			scratch := nearest.Scratch()
			for j := start; j < end; j++ {
				bAssign[j], _ = nearest.Nearest(batchPts.Row(j), 0, scratch)
			}
		})
		copy(prev.Data, centers.Data)
		for j := range batch {
			c := bAssign[j]
			counts[c]++
			eta := 1 / float32(counts[c])
			cr := centers.Row(c)
			p := batchPts.Row(j)
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

	// Final full-assignment pass, chunked: every chunk's rows are read into
	// a private buffer and assigned in parallel; assignment slots are
	// disjoint, so the pass is deterministic at any worker count. The
	// distances it keeps let the repair run without reading the slab again.
	assign := make([]int, n)
	dist := make([]float64, n)
	chunkRows := chunkRowsOf(src)
	buf := f32.New(min(chunkRows, n), dim)
	nearest.Load(centers)
	for start := 0; start < n; start += chunkRows {
		cn := min(chunkRows, n-start)
		chunk := f32.Wrap(cn, dim, buf.Data[:cn*dim])
		src.ReadChunk(start, chunk)
		f32.ParallelRange(cn, min(workers, f32.Workers(cn)), func(lo, hi int) {
			scratch := nearest.Scratch()
			for i := lo; i < hi; i++ {
				assign[start+i], dist[start+i] = nearest.Nearest(chunk.Row(i), 0, scratch)
			}
		})
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	one := f32.New(1, dim)
	repairEmptyClusters(centers, assign, dist, sizes, func(i int) []float32 {
		src.Gather(one, []int{i})
		return one.Row(0)
	})
	return &Result{K: k, Assign: assign, Dist: dist, Centers: centers.Rows(), Sizes: sizes, Iterations: iter}
}
