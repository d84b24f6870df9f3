// Package cluster implements k-means clustering (k-means++ seeding, Lloyd
// iterations, empty-cluster repair) and centroid-representative selection.
// It is the selection engine of Algorithm 2: row vectors and column vectors
// are clustered and the points nearest each centroid become the sub-table's
// rows and columns (the paper uses sklearn's KMeans for this).
//
// The input is a contiguous f32.Matrix (KMeansMatrix, MiniBatchKMeans). The
// assignment step runs across workers, each full scan of a point one
// f32.Centers call (every center's distance in one pass over the point).
// In MiniBatchKMeans every step is such a scan; in KMeansMatrix only the
// first is O(n·k·dim), and after it Hamerly's bounds skip every point they
// prove keeps its centre. The centroid-update step stays serial: its float
// accumulation order is part of the determinism contract, so results are
// bit-identical to the serial implementation at any worker count. Every
// Result carries each point's distance to its centre (Dist), so Closest and
// Representatives rank members without touching a point again.
package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"subtab/internal/f32"
)

// Options configures k-means.
type Options struct {
	// MaxIter bounds Lloyd iterations (default 50).
	MaxIter int
	// Seed drives k-means++ initialization.
	Seed int64
	// Tolerance stops early once the centroids' movements in one update,
	// summed over all of them (Euclidean distances, not squared), fall
	// below it (default 1e-4).
	Tolerance float64
	// Workers bounds the parallelism of the assignment step (default
	// GOMAXPROCS). Results are identical at any setting.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-4
	}
	return o
}

// Result holds a clustering.
type Result struct {
	K          int
	Assign     []int       // point index -> cluster
	Dist       []float64   // point index -> squared distance to its centre, with f32.SqDist's bits
	Centers    [][]float32 // k centroids (views into one contiguous slab)
	Sizes      []int       // points per cluster
	Iterations int
}

// singletons is the clustering of k >= n points: every point its own
// cluster, centred on itself.
func singletons(centers f32.Matrix) *Result {
	n := centers.R
	res := &Result{K: n, Assign: make([]int, n), Dist: make([]float64, n), Centers: centers.Rows(), Sizes: make([]int, n)}
	for i := 0; i < n; i++ {
		res.Assign[i] = i
		res.Dist[i] = f32.SqDist(centers.Row(i), centers.Row(i))
		res.Sizes[i] = 1
	}
	return res
}

// BytesPerPoint is what KMeansMatrix allocates per point beyond its
// O(k·dim) centre state: the result's Assign and Dist, the seeding's
// distances, and the assignment step's bounds (upper and lower, float64).
// Admission reserves it per candidate.
const BytesPerPoint = 5 * 8

// margin pads every bound of the assignment step, relative: far above
// SqDist's rounding error (about dim·2⁻⁵³), so a bound that claims a point
// keeps its centre holds for the distances SqDist computes, not only for the
// exact ones.
const margin = 1e-9

// KMeansMatrix clusters the rows of pts into k clusters. When
// k >= pts.R every point becomes its own cluster.
//
// It is Lloyd's algorithm with Hamerly's bounds ("Making k-means even
// faster", SDM 2010) on the assignment step, which therefore costs
// O(n·k·dim) in the first iteration but usually far less after it: a point
// whose upper bound on the distance to its centre is strictly below a lower
// bound on the distance to every other centre, or below half the distance
// from its centre to the nearest other one, provably keeps its centre, and
// is skipped. The bounds only decide whether to skip work: every
// assignment and distance returned comes from f32.SqDist or f32.Centers,
// and every centre from the same index-order sums, so the output is
// bit-identical to a plain Lloyd loop on every target (arm64's fused
// bodies keep their own bits, as before), and to the serial loop at any
// worker count.
func KMeansMatrix(pts f32.Matrix, k int, opt Options) *Result {
	opt = opt.withDefaults()
	n := pts.R
	if n == 0 || k <= 0 {
		return &Result{K: 0}
	}
	if k >= n {
		centers := f32.New(n, pts.C)
		copy(centers.Data, pts.Data)
		return singletons(centers)
	}
	dim := pts.C
	rng := rand.New(rand.NewSource(opt.Seed))
	workers := opt.Workers
	if workers <= 0 {
		workers = f32.Workers(n)
	}

	centers := seedPlusPlus(pts, k, rng, workers)
	assign := make([]int, n)
	dist := make([]float64, n)
	sizes := make([]int, k)
	next := f32.New(k, dim)
	// Per point: upper bounds the distance (not squared) to its centre and
	// lower the distance to every other one. Per centre: half bounds from
	// below half the distance to the nearest other centre, and delta is how
	// far the last update moved it.
	upper, lower := make([]float64, n), make([]float64, n)
	half, delta := make([]float64, k), make([]float64, k)
	maxDelta := 0.0
	var nearest f32.Centers
	// One assignment scratch per worker, taken on the first pass: the
	// centre count, which sizes it, is fixed for the run. ParallelRange
	// gives worker w the rows from w·chunk, so start/chunk names it.
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	var scratches [][]float64

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		// Assignment step: every point is independent, so the row range
		// fans out across workers against the centers as frozen here. A
		// point the bounds cannot settle gets the full Nearest scan from its
		// previous center, which visits the others with an explicit
		// lowest-index tie-break (the plain index-order scan's first-wins
		// behaviour even on exact float ties). The skip test is strict, so a
		// tie is never skipped, and a NaN fails it. A skipped point's dist is
		// left stale (-1). Hamerly retakes a failing point's own distance
		// first and tests again; here that costs about what the scan does
		// (each of the scan's lanes is the same serial sum), so it goes
		// straight to the scan.
		nearest.Load(centers)
		if iter > 0 {
			halfGaps(centers, half)
		} else {
			scratches = make([][]float64, workers)
			for w := range scratches {
				scratches[w] = nearest.Scratch()
			}
		}
		f32.ParallelRange(n, workers, func(start, end int) {
			scratch := scratches[start/chunk]
			for i := start; i < end; i++ {
				p, a := pts.Row(i), assign[i]
				if iter > 0 {
					if d := delta[a]; d != 0 {
						upper[i] = (upper[i] + d) * (1 + margin)
					}
					if maxDelta != 0 {
						lower[i] = (lower[i] - maxDelta) * (1 - margin)
					}
					if upper[i] < max(half[a], lower[i]) {
						dist[i] = -1
						continue
					}
				}
				assign[i], dist[i] = nearest.Nearest(p, a, scratch)
				upper[i] = math.Sqrt(dist[i]) * (1 + margin)
				lower[i] = math.Sqrt(nearest.RunnerUp(scratch, assign[i])) * (1 - margin)
			}
		})
		for c := range sizes {
			sizes[c] = 0
		}
		for _, c := range assign {
			sizes[c]++
		}
		if slices.Contains(sizes, 0) {
			// The repair reads every distance: retake the stale ones.
			for i, d := range dist {
				if d < 0 {
					dist[i] = f32.SqDist(pts.Row(i), centers.Row(assign[i]))
				}
			}
			for _, i := range repairEmptyClusters(centers, assign, dist, sizes, pts.Row) {
				upper[i], lower[i] = math.Inf(1), 0
			}
		}
		// Update step, serial: summing points in index order is part of the
		// bit-determinism contract (float addition is not associative).
		f32.Zero(next.Data)
		for i, c := range assign {
			f32.Add(next.Row(c), pts.Row(i))
		}
		moved := 0.0
		maxDelta = 0
		for c := 0; c < k; c++ {
			delta[c] = 0
			if sizes[c] == 0 {
				continue
			}
			f32.Scale(1/float32(sizes[c]), next.Row(c))
			delta[c] = math.Sqrt(f32.SqDist(next.Row(c), centers.Row(c)))
			moved += delta[c]
			maxDelta = max(maxDelta, delta[c])
			copy(centers.Row(c), next.Row(c))
		}
		if moved < opt.Tolerance {
			iter++
			break
		}
	}
	// The last update moved the centers after the last assignment, so every
	// distance is taken once more against the centers returned.
	f32.ParallelRange(n, workers, func(start, end int) {
		for i := start; i < end; i++ {
			dist[i] = f32.SqDist(pts.Row(i), centers.Row(assign[i]))
		}
	})
	return &Result{K: k, Assign: assign, Dist: dist, Centers: centers.Rows(), Sizes: sizes, Iterations: iter}
}

// halfGaps sets half[a] to half the distance from centre a to its nearest
// other centre, shrunk by the margin (+Inf with one centre, NaN if one of
// the distances is): a point nearer a than that is nearer a than any other.
func halfGaps(centers f32.Matrix, half []float64) {
	for a := range half {
		half[a] = math.Inf(1)
	}
	for a := range half {
		for b := a + 1; b < len(half); b++ {
			d := math.Sqrt(f32.SqDist(centers.Row(a), centers.Row(b))) * (1 - margin) / 2
			half[a], half[b] = min(half[a], d), min(half[b], d)
		}
	}
}

// repairEmptyClusters reassigns, for every empty cluster, the point farthest
// from its current center (never stealing a singleton), reading the
// distances from dist. The scan is serial in index order — first-found
// farthest wins on exact ties — so the repair is deterministic and shared
// bit-for-bit by the exact and mini-batch paths. A moved
// point becomes a singleton, which no later scan reads, and its dist is
// retaken from row(i) against its new center. It returns the points moved.
func repairEmptyClusters(centers f32.Matrix, assign []int, dist []float64, sizes []int, row func(i int) []float32) []int {
	var moved []int
	for c := range sizes {
		if sizes[c] > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i, d := range dist {
			if sizes[assign[i]] > 1 && d > farD {
				far, farD = i, d
			}
		}
		if far >= 0 {
			sizes[assign[far]]--
			assign[far] = c
			sizes[c] = 1
			dist[far] = f32.SqDist(row(far), centers.Row(c))
			moved = append(moved, far)
		}
	}
	return moved
}

// Closest returns, for each cluster, the indices of its q members nearest
// the center, nearest first, ties going to the lower point index — the
// first q of the cluster's members sorted by (Dist, index). One serial pass
// keeps each cluster's list sorted: a point enters by insertion when the
// list is short or it beats the list's last, so the cost is O(n) plus
// O(q) per entry instead of a sort of every member.
func (r *Result) Closest(q int) [][]int {
	out := make([][]int, r.K)
	if q <= 0 {
		return out
	}
	for c := range out {
		out[c] = make([]int, 0, min(q, r.Sizes[c]))
	}
	for i, c := range r.Assign {
		l, d := out[c], r.Dist[i]
		if len(l) == q {
			// Indices only grow, so an equal distance keeps the incumbent.
			if !(d < r.Dist[l[q-1]]) {
				continue
			}
		} else {
			l = append(l, 0)
		}
		j := len(l) - 1
		for ; j > 0 && r.Dist[l[j-1]] > d; j-- {
			l[j] = l[j-1]
		}
		l[j] = i
		out[c] = l
	}
	return out
}

// Representatives returns, for each non-empty cluster, the point nearest its
// centroid (the lowest-indexed one on a tie) — the "centroid selection" of
// Algorithm 2. Clusters are ordered by descending size, then cluster id, so
// that callers taking a prefix favour the dominant patterns.
func (r *Result) Representatives() []int {
	closest := r.Closest(1)
	order := make([]int, r.K)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return r.Sizes[order[x]] > r.Sizes[order[y]] })
	var out []int
	for _, c := range order {
		if len(closest[c]) > 0 {
			out = append(out, closest[c][0])
		}
	}
	return out
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting. The
// rng draws and the D² accumulation stay serial (their order is part of the
// determinism contract); the per-point distance refreshes fan out across
// workers with disjoint writes.
func seedPlusPlus(pts f32.Matrix, k int, rng *rand.Rand, workers int) f32.Matrix {
	n := pts.R
	centers := f32.New(k, pts.C)
	copy(centers.Row(0), pts.Row(rng.Intn(n)))
	dists := make([]float64, n)
	first := centers.Row(0)
	f32.ParallelRange(n, workers, func(start, end int) {
		for i := start; i < end; i++ {
			dists[i] = f32.SqDist(pts.Row(i), first)
		}
	})
	for m := 1; m < k; m++ {
		total := 0.0
		for _, d := range dists {
			total += d
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n) // all points identical to a center
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range dists {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := centers.Row(m)
		copy(c, pts.Row(idx))
		f32.ParallelRange(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				if d := f32.SqDistBounded(pts.Row(i), c, dists[i]); d < dists[i] {
					dists[i] = d
				}
			}
		})
	}
	return centers
}

// Inertia returns the total within-cluster squared distance — the k-means
// objective, useful for tests and ablations.
func (r *Result) Inertia() float64 {
	s := 0.0
	for _, d := range r.Dist {
		s += d
	}
	return s
}
