// Package cluster implements k-means clustering (k-means++ seeding, Lloyd
// iterations, empty-cluster repair) and centroid-representative selection.
// It is the selection engine of Algorithm 2: row vectors and column vectors
// are clustered and the points nearest each centroid become the sub-table's
// rows and columns (the paper uses sklearn's KMeans for this).
//
// The input is a contiguous f32.Matrix (KMeansMatrix, MiniBatchKMeans). The
// assignment step — the O(n·k·dim) bulk of every Lloyd iteration — runs
// across workers, each point's scan one f32.Centers.Nearest call (every
// center's distance in one pass over the point), while the centroid-update
// step stays serial: its float accumulation order is part of the determinism
// contract, so results are bit-identical to the serial implementation at any
// worker count. Every Result carries each point's distance to its centre
// (Dist), so Closest and Representatives rank members without touching a
// point again.
package cluster

import (
	"math"
	"math/rand"
	"sort"

	"subtab/internal/f32"
)

// Options configures k-means.
type Options struct {
	// MaxIter bounds Lloyd iterations (default 50).
	MaxIter int
	// Seed drives k-means++ initialization.
	Seed int64
	// Tolerance stops early when centroids move less than this (default 1e-4).
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

// KMeansMatrix clusters the rows of pts into k clusters. When
// k >= pts.R every point becomes its own cluster.
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
	counts := make([]int, k)
	var nearest f32.Centers

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		// Assignment step: every point's nearest center is independent, so
		// the row range fans out across workers against the centers as
		// frozen here. Each scan starts from the point's previous center and
		// visits the others in index order with an explicit lowest-index
		// tie-break, which reproduces the plain index-order scan's first-wins
		// behaviour even on exact float ties (duplicate rows). On amd64
		// Nearest computes every center's distance in full, side by side in
		// one pass over the point; elsewhere it cuts a center's sum short
		// once it exceeds the incumbent's. Both pick the same center — a sum
		// cut short has already lost and only grows (see f32.Centers.Nearest).
		// The winner's distance, SqDist's bits, feeds the repair.
		nearest.Load(centers)
		f32.ParallelRange(n, workers, func(start, end int) {
			scratch := nearest.Scratch()
			for i := start; i < end; i++ {
				assign[i], dist[i] = nearest.Nearest(pts.Row(i), assign[i], scratch)
			}
		})
		for c := range sizes {
			sizes[c] = 0
		}
		for _, c := range assign {
			sizes[c]++
		}
		repairEmptyClusters(centers, assign, dist, sizes, pts.Row)
		// Update step, serial: summing points in index order is part of the
		// bit-determinism contract (float addition is not associative).
		f32.Zero(next.Data)
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			f32.Add(next.Row(c), pts.Row(i))
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			f32.Scale(1/float32(counts[c]), next.Row(c))
			moved += math.Sqrt(f32.SqDist(next.Row(c), centers.Row(c)))
			copy(centers.Row(c), next.Row(c))
		}
		if moved < opt.Tolerance {
			iter++
			break
		}
	}
	for c := range sizes {
		sizes[c] = 0
	}
	for _, c := range assign {
		sizes[c]++
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

// repairEmptyClusters reassigns, for every empty cluster, the point farthest
// from its current center (never stealing a singleton), reading the
// distances from dist. The scan is serial in index order — first-found
// farthest wins on exact ties — so the repair is deterministic and shared
// bit-for-bit by the exact and mini-batch paths. A moved
// point becomes a singleton, which no later scan reads, and its dist is
// retaken from row(i) against its new center.
func repairEmptyClusters(centers f32.Matrix, assign []int, dist []float64, sizes []int, row func(i int) []float32) {
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
		}
	}
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
