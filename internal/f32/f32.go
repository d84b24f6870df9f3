// Package f32 is the flat-vector core of the SubTab compute spine. It
// provides a contiguous row-major float32 matrix plus the small kernel set
// the pipeline needs (dot, axpy, scale, squared distance, batched mean-pool)
// and deterministic parallel iteration helpers.
//
// Two properties matter to callers:
//
//   - Every kernel computes ONE fixed arithmetic function of its inputs PER
//     BUILD TARGET: accumulation types, operand order and (for the unrolled
//     reductions) lane-to-accumulator assignment are documented contracts, so
//     on one GOARCH the output is the same on every machine and at every
//     worker count. Element-wise kernels (Axpy, Add, Scale) unroll without
//     changing a single bit; reductions that unroll with multiple
//     accumulators (Dot32) fix the lane order once. What the contract does
//     NOT fix is whether a*b+c rounds once or twice: the Go compiler keeps
//     the two roundings on amd64 (at any GOAMD64 level) and fuses them into
//     FMADD on arm64, ppc64le, s390x and riscv64. The pinned bits — every
//     golden in this repository — are those of unfused amd64. On amd64 the
//     three hottest kernels (SGSlotDistinct, MeanPoolInto, Centers.Nearest)
//     run SSE2 assembly bodies (kernels_amd64.s) that are unfused and
//     bit-identical to the Go bodies in this file, which differential tests
//     and three fuzz targets hold them to; every other target runs the Go
//     bodies as its compiler lowers them. The first two keep the 4-lane
//     accumulator contract, a register's lanes being four components. In
//     Nearest the lanes are centres: each lane runs SqDist's own serial sum
//     for its centre, so every distance has SqDist's bits, no lane order
//     exists to fix, and the nearest centre is the one the Go body's bounded
//     scan returns. The one thing left open inside a target is the payload of
//     a NaN: which operand's payload survives an add of two NaNs depends on
//     the operand order the compiler picked, so a NaN output is a NaN in
//     every body, with unspecified bits.
//   - The parallel helpers only hand out disjoint index ranges; combined with
//     MapReduceOrdered's chunk-order reduction, every parallel computation in
//     this codebase is order-deterministic — same inputs, same bytes out,
//     regardless of GOMAXPROCS or scheduling.
package f32

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Matrix is a dense row-major float32 matrix: row i occupies
// Data[i*C : (i+1)*C]. A zero Matrix is an empty matrix.
type Matrix struct {
	R, C int
	Data []float32
}

// New allocates an r×c zero matrix in one contiguous slab.
func New(r, c int) Matrix {
	return Matrix{R: r, C: c, Data: make([]float32, r*c)}
}

// Wrap views an existing flat slice as an r×c matrix without copying.
// len(data) must be r*c.
func Wrap(r, c int, data []float32) Matrix {
	if len(data) != r*c {
		panic("f32: Wrap: data length does not match dimensions")
	}
	return Matrix{R: r, C: c, Data: data}
}

// FromRows packs a slice-of-slices into one contiguous matrix (copying).
// All rows must share one length; an empty input yields an empty matrix.
func FromRows(rows [][]float32) Matrix {
	if len(rows) == 0 {
		return Matrix{}
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// Row returns the i-th row as a view into the matrix (no copy).
func (m Matrix) Row(i int) []float32 {
	return m.Data[i*m.C : (i+1)*m.C : (i+1)*m.C]
}

// Rows materializes per-row views (headers only; the data is not copied).
func (m Matrix) Rows() [][]float32 {
	out := make([][]float32, m.R)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Kernels. Accumulation types are part of the contract: Dot, SqDist and
// Cosine accumulate in float64 (as the scalar code they replaced did), while
// Dot32, Axpy, Add and Scale stay in float32 (the word2vec training regime).

// Dot returns the dot product of two equal-length vectors, accumulated in
// float64.
func Dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Dot32 returns the dot product accumulated in float32 — the exact
// arithmetic of the skip-gram inner loop. The kernel is unrolled 4-wide with
// four independent accumulators (lane i feeds accumulator i mod 4) combined
// as ((s0+s1)+(s2+s3))+tail; that lane order is FIXED and part of the
// contract — it breaks the add-latency dependency chain without introducing
// any scheduling- or width-dependent variation, so the result is one
// deterministic function of the inputs on every machine of a build target
// (the package comment has the fused-multiply-add caveat across targets).
func Dot32(a, b []float32) float32 {
	// Pinning cap to len lets the prover discharge the chunk-slice bounds
	// checks below (slicing checks cap, not len).
	a = a[:len(a):len(a)]
	b = b[:len(a):len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	// Chunked subslices let the compiler prove every access in bounds: one
	// provable slice op per block, constant indices inside.
	for ; i <= len(a)-4; i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	var t float32
	for ; i < len(a); i++ {
		t += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + t
}

// Axpy adds a*x to y element-wise: y[i] += a * x[i]. The 8-wide unroll is
// pure instruction-level parallelism: every element is independent, so the
// results are bit-identical to the scalar loop at any width.
func Axpy(a float32, x, y []float32) {
	y = y[:len(y):len(y)]
	x = x[:len(y):len(y)]
	i := 0
	for ; i <= len(y)-8; i += 8 {
		yy := y[i : i+8 : i+8]
		xx := x[i : i+8 : i+8]
		yy[0] += a * xx[0]
		yy[1] += a * xx[1]
		yy[2] += a * xx[2]
		yy[3] += a * xx[3]
		yy[4] += a * xx[4]
		yy[5] += a * xx[5]
		yy[6] += a * xx[6]
		yy[7] += a * xx[7]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}

// Add adds x to dst element-wise: dst[i] += x[i]. Unrolled like Axpy;
// element-independent, so bit-identical to the scalar loop.
func Add(dst, x []float32) {
	dst = dst[:len(dst):len(dst)]
	x = x[:len(dst):len(dst)]
	i := 0
	for ; i <= len(dst)-8; i += 8 {
		dd := dst[i : i+8 : i+8]
		xx := x[i : i+8 : i+8]
		dd[0] += xx[0]
		dd[1] += xx[1]
		dd[2] += xx[2]
		dd[3] += xx[3]
		dd[4] += xx[4]
		dd[5] += xx[5]
		dd[6] += xx[6]
		dd[7] += xx[7]
	}
	for ; i < len(dst); i++ {
		dst[i] += x[i]
	}
}

// ---------------------------------------------------------------------------
// Skip-gram training kernels. The logistic table and the fused pair update
// live here so the embedding trainer's inner loop is one call per target
// row; the lane-order contracts are the same as the standalone kernels'.

const (
	sigTableSize = 1024
	sigMax       = 6.0
	// sigScale converts a logit offset by +sigMax into a table index with
	// one multiply — the classic word2vec C expTable indexing, minus its
	// division.
	sigScale = sigTableSize / (2 * sigMax)
)

// sigTable is a precomputed logistic table over [-sigMax, sigMax].
var sigTable = func() [sigTableSize]float32 {
	var t [sigTableSize]float32
	for i := range t {
		x := (float64(i)/sigTableSize*2 - 1) * sigMax
		t[i] = float32(1 / (1 + math.Exp(-x)))
	}
	return t
}()

// Sigmoid32 is the table-driven logistic function of the training loop:
// values beyond ±sigMax saturate to exactly 0 or 1, values inside map to a
// 1024-cell table — the precomputed-sigmoid trick of the classic word2vec C
// implementation. The table resolution is part of the arithmetic contract.
func Sigmoid32(x float32) float32 {
	if x >= sigMax {
		return 1
	}
	if x <= -sigMax {
		return 0
	}
	i := int((x + sigMax) * sigScale)
	if uint(i) >= sigTableSize {
		// NaN (int conversion yields a huge negative) or the x == sigMax-ε
		// rounding edge: clamp so the function is total — garbage inputs must
		// not crash the trainer, and the clamp keeps it deterministic.
		if i < 0 {
			return sigTable[0]
		}
		i = sigTableSize - 1
	}
	return sigTable[i]
}

// SGPair applies one complete skip-gram update slot against one target row:
// g = (label - Sigmoid32(Dot32(cv, tv))) * lr, then the fused SGStep — one
// call, two passes over tv (dot, then update; the first warms the lines the
// second rewrites). Exactly equivalent to calling those three kernels in
// sequence — the body below is their manual fusion, pinned to the composed
// form by the kernel tests.
func SGPair(label, lr float32, cv, tv, grad []float32) {
	cv = cv[:len(cv):len(cv)]
	tv = tv[:len(cv):len(cv)]
	grad = grad[:len(cv):len(cv)]
	// Dot32, fused: same 4-lane accumulation contract (element i feeds
	// accumulator i mod 4, so the 8-wide block below adds the exact same
	// terms to each lane in the exact same order as the 4-wide loop).
	var s0, s1, s2, s3 float32
	i := 0
	for ; i <= len(cv)-8; i += 8 {
		c := cv[i : i+8 : i+8]
		v := tv[i : i+8 : i+8]
		s0 += c[0] * v[0]
		s1 += c[1] * v[1]
		s2 += c[2] * v[2]
		s3 += c[3] * v[3]
		s0 += c[4] * v[4]
		s1 += c[5] * v[5]
		s2 += c[6] * v[6]
		s3 += c[7] * v[7]
	}
	for ; i <= len(cv)-4; i += 4 {
		c := cv[i : i+4 : i+4]
		v := tv[i : i+4 : i+4]
		s0 += c[0] * v[0]
		s1 += c[1] * v[1]
		s2 += c[2] * v[2]
		s3 += c[3] * v[3]
	}
	var t float32
	for ; i < len(cv); i++ {
		t += cv[i] * tv[i]
	}
	g := (label - Sigmoid32(((s0+s1)+(s2+s3))+t)) * lr
	if g == 0 {
		// Saturated pair (sigmoid hit exactly 0 or 1): every update term is
		// a zero product, so skipping the pass is part of the contract —
		// SGStep short-circuits identically.
		return
	}
	// SGStep, fused.
	i = 0
	for ; i <= len(cv)-8; i += 8 {
		c := cv[i : i+8 : i+8]
		v := tv[i : i+8 : i+8]
		gr := grad[i : i+8 : i+8]
		t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
		t4, t5, t6, t7 := v[4], v[5], v[6], v[7]
		gr[0] += g * t0
		gr[1] += g * t1
		gr[2] += g * t2
		gr[3] += g * t3
		gr[4] += g * t4
		gr[5] += g * t5
		gr[6] += g * t6
		gr[7] += g * t7
		v[0] = t0 + g*c[0]
		v[1] = t1 + g*c[1]
		v[2] = t2 + g*c[2]
		v[3] = t3 + g*c[3]
		v[4] = t4 + g*c[4]
		v[5] = t5 + g*c[5]
		v[6] = t6 + g*c[6]
		v[7] = t7 + g*c[7]
	}
	for ; i <= len(cv)-4; i += 4 {
		c := cv[i : i+4 : i+4]
		v := tv[i : i+4 : i+4]
		gr := grad[i : i+4 : i+4]
		t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
		gr[0] += g * t0
		gr[1] += g * t1
		gr[2] += g * t2
		gr[3] += g * t3
		v[0] = t0 + g*c[0]
		v[1] = t1 + g*c[1]
		v[2] = t2 + g*c[2]
		v[3] = t3 + g*c[3]
	}
	for ; i < len(cv); i++ {
		t := tv[i]
		grad[i] += g * t
		tv[i] = t + g*cv[i]
	}
}

// SGStep is the fused skip-gram update against one target row: with the
// gradient scale g already computed, it accumulates g*tv into grad (the
// pending center update) and adds g*cv to tv. Per lane it performs exactly
// the arithmetic of Axpy(g, tv, grad) followed by Axpy(g, cv, tv) — grad
// reads the pre-update tv lane — but in one pass, loading each tv lane once.
// Element-independent, so bit-identical to the two-call form at any unroll
// width. This is the training inner loop's dominant kernel.
func SGStep(g float32, cv, tv, grad []float32) {
	if g == 0 {
		return // zero gradient: every term below is a zero product
	}
	cv = cv[:len(cv):len(cv)]
	tv = tv[:len(cv):len(cv)]
	grad = grad[:len(cv):len(cv)]
	i := 0
	for ; i <= len(cv)-8; i += 8 {
		c := cv[i : i+8 : i+8]
		v := tv[i : i+8 : i+8]
		gr := grad[i : i+8 : i+8]
		t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
		t4, t5, t6, t7 := v[4], v[5], v[6], v[7]
		gr[0] += g * t0
		gr[1] += g * t1
		gr[2] += g * t2
		gr[3] += g * t3
		gr[4] += g * t4
		gr[5] += g * t5
		gr[6] += g * t6
		gr[7] += g * t7
		v[0] = t0 + g*c[0]
		v[1] = t1 + g*c[1]
		v[2] = t2 + g*c[2]
		v[3] = t3 + g*c[3]
		v[4] = t4 + g*c[4]
		v[5] = t5 + g*c[5]
		v[6] = t6 + g*c[6]
		v[7] = t7 + g*c[7]
	}
	for ; i <= len(cv)-4; i += 4 {
		c := cv[i : i+4 : i+4]
		v := tv[i : i+4 : i+4]
		gr := grad[i : i+4 : i+4]
		t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
		gr[0] += g * t0
		gr[1] += g * t1
		gr[2] += g * t2
		gr[3] += g * t3
		v[0] = t0 + g*c[0]
		v[1] = t1 + g*c[1]
		v[2] = t2 + g*c[2]
		v[3] = t3 + g*c[3]
	}
	for ; i < len(cv); i++ {
		t := tv[i]
		grad[i] += g * t
		tv[i] = t + g*cv[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float32, x []float32) {
	for i := range x {
		x[i] *= a
	}
}

// Zero clears x.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// SqDist returns the squared Euclidean distance between two equal-length
// vectors, with per-component widening to float64.
func SqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// SqDistBounded is SqDist with early exit: it returns as soon as the running
// sum strictly exceeds bound. Because the running sum is the exact prefix of
// SqDist's accumulation (same order, same widening) and can only grow, the
// abort is deterministic and nearest-neighbor scans get exactly the result a
// full computation would give: a return value > bound guarantees the true
// distance is > bound, and any return value <= bound IS the exact distance —
// so even exact ties with the incumbent (d == bound) surface precisely and
// index-order tie-breaks behave as if every distance had been computed in
// full.
func SqDistBounded(a, b []float32, bound float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		s += d0 * d0
		d1 := float64(a[i+1]) - float64(b[i+1])
		s += d1 * d1
		d2 := float64(a[i+2]) - float64(b[i+2])
		s += d2 * d2
		d3 := float64(a[i+3]) - float64(b[i+3])
		s += d3 * d3
		if s > bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// centersGo is the Go body of Centers: the centres kept as rows and scanned
// one after another, each sum but the first's cut short by SqDistBounded once
// it exceeds the incumbent's. It is Centers itself on every target but amd64,
// and on amd64 the oracle the SSE2 body is tested against — hence the same
// methods, the same panics and a scratch it has no use for.
type centersGo struct{ m Matrix }

// Load copies the centres (the rows of m) in; later writes to m are not seen.
// The copy's storage is reused from one Load to the next.
func (c *centersGo) Load(m Matrix) {
	if len(m.Data) != m.R*m.C {
		panic("f32: Centers.Load: data length does not match dimensions")
	}
	c.m = Matrix{R: m.R, C: m.C, Data: append(c.m.Data[:0], m.Data...)}
}

// Scratch allocates what Nearest needs as scratch for the centres loaded:
// one float64 per centre, rounded up to even. One per goroutine.
func (c *centersGo) Scratch() []float64 { return make([]float64, (c.m.R+1)&^1) }

// Nearest returns the centre nearest to p[:dim] and its squared distance, as
// SqDist computes it. The scan starts from centre first and visits the
// others in index order, taking a strictly smaller distance or an equal one
// at a lower index — so without NaNs the answer is the lowest-indexed centre
// at the minimum whatever first is, and a NaN distance never wins but from
// first. It panics on a p shorter than dim, a scratch shorter than Scratch
// returns, and a first that is not a centre.
func (c *centersGo) Nearest(p []float32, first int, scratch []float64) (int, float64) {
	if len(p) < c.m.C || len(scratch) < (c.m.R+1)&^1 {
		panic("f32: Centers.Nearest: p or scratch too short")
	}
	p = p[:c.m.C]
	if first < 0 || first >= c.m.R {
		panic("f32: Centers.Nearest: first is not a centre")
	}
	best := first
	bestD := SqDist(p, c.m.Row(best))
	for i := 0; i < c.m.R; i++ {
		if i == best {
			continue
		}
		d := SqDistBounded(p, c.m.Row(i), bestD)
		if d < bestD || (d == bestD && i < best) {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// Cosine returns the cosine similarity of two vectors (0 for zero vectors).
func Cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// meanPoolIntoGo is the Go body of MeanPoolInto — the arithmetic contract
// (see MeanPoolInto), the body of every target but amd64, on amd64 the body
// for shapes the SSE2 one does not take, and the oracle of the differential
// test. dst is zeroed, the selected rows are added in index order (negative
// indices skipped) as float32 sums starting from +0, and the sums are
// multiplied once by 1/float32(n); nothing pooled leaves dst zero.
func meanPoolIntoGo(dst []float32, src Matrix, rows []int32) int {
	Zero(dst)
	n := 0
	for _, r := range rows {
		if r < 0 {
			continue
		}
		Add(dst, src.Row(int(r)))
		n++
	}
	if n > 0 {
		Scale(1/float32(n), dst)
	}
	return n
}

// GatherRows copies the selected rows of src into dst (dst row i receives
// src row rows[i]). Both matrices must share the column count and dst must
// have len(rows) rows. The copies are plain memmoves fanned out across
// workers with disjoint destination rows, so the gather is deterministic at
// any worker count. This is the sampled-row path of the selection pipeline:
// a candidate sample of a warm full-table vector cache is a row gather, not
// a recompute.
func GatherRows(dst, src Matrix, rows []int) {
	if dst.C != src.C {
		panic("f32: GatherRows: column counts differ")
	}
	if dst.R != len(rows) {
		panic("f32: GatherRows: destination rows do not match index count")
	}
	ParallelRange(len(rows), Workers(len(rows)), func(start, end int) {
		for i := start; i < end; i++ {
			copy(dst.Row(i), src.Row(rows[i]))
		}
	})
}

// ---------------------------------------------------------------------------
// Deterministic parallel iteration.

// Workers returns the effective worker count for n independent work items:
// min(GOMAXPROCS, n), at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelRange splits [0,n) into one contiguous chunk per worker and runs
// fn(start, end) concurrently, blocking until all chunks finish. With
// workers <= 1 (or tiny n) it degenerates to a direct call, so callers need
// no serial fallback. fn must only write state owned by its own index range.
func ParallelRange(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= n {
			break
		}
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			fn(start, end)
		}(start, end)
	}
	wg.Wait()
}

// ParallelIndex runs fn(i) for every i in [0,n) across workers with dynamic
// (work-stealing) scheduling — the right shape for triangular or otherwise
// unbalanced loops. fn must only write state owned by index i; under that
// contract the result is independent of scheduling.
func ParallelIndex(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapReduceOrdered is a parallel row-map with a deterministic ordered
// reduction: [0,n) is split into contiguous chunks, mapFn runs on the chunks
// concurrently, and reduce is called exactly once per chunk in ascending
// chunk order (chunk 0 first), regardless of which goroutine finishes when.
// Reductions whose operator is order-sensitive (float sums, argmin with
// first-wins tie-breaks) therefore produce one fixed result per input.
func MapReduceOrdered[T any](n, workers int, mapFn func(start, end int) T, reduce func(v T)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		reduce(mapFn(0, n))
		return
	}
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	results := make([]T, nChunks)
	ParallelRange(n, workers, func(start, end int) {
		// ParallelRange uses the same chunk arithmetic, so start/chunk
		// recovers this chunk's index.
		results[start/chunk] = mapFn(start, end)
	})
	for i := 0; i < nChunks; i++ {
		reduce(results[i])
	}
}

// SGSlotMaxBatch bounds the batched fast path of SGSlot: slots with more
// targets (Negatives > 7) take the sequential path.
const SGSlotMaxBatch = 8

// SGSlot runs one complete skip-gram slot against one center row: tvs[0] is
// the positive target (label 1), tvs[1:] are negatives (label 0), processed
// in ascending order, with the center update applied at the end. Exactly
// equivalent to Zero(grad); SGPair(label_i, lr, cv, tvs[i], grad) for
// i = 0, 1, ...; Add(cv, grad) — one call per slot instead of one per
// target, so the trainer's hottest path crosses the function boundary
// seven times less.
//
// When every target is a distinct row (detected by backing-array pointer:
// duplicate draws from the trainer alias the same overlay row) the dots and
// sigmoid lookups are computed for all targets up front. The per-target
// dot→table-load→update chain is latency-bound, so letting the independent
// chains overlap is worth ~15% of training time; because the rows are
// distinct and the center update is deferred to the end, the arithmetic —
// and so every output bit — is identical to the sequential order. Slots with
// aliased targets (where target k+1 must see target k's update) fall back to
// the sequential path.
func SGSlot(lr float32, cv, grad []float32, tvs [][]float32) {
	if len(tvs) == 0 || len(cv) == 0 {
		Zero(grad)
		return
	}
	batch := len(tvs) <= SGSlotMaxBatch
	for i := 1; i < len(tvs) && batch; i++ {
		p := &tvs[i][0]
		for j := 0; j < i; j++ {
			if p == &tvs[j][0] {
				batch = false
				break
			}
		}
	}
	if batch {
		SGSlotDistinct(lr, cv, grad, tvs)
		return
	}
	sgSlotSeq(lr, cv, grad, tvs)
}

// sgSlotDistinctGo is the Go body of SGSlotDistinct — the arithmetic
// contract (see SGSlotDistinct), the body of every target but amd64, on
// amd64 the body for shapes the SSE2 one does not take, and the oracle of
// the differential test: dots for every target first, then the sigmoid
// gradients, then the updates in target order.
func sgSlotDistinctGo(lr float32, cv, grad []float32, tvs [][]float32) {
	cv = cv[:len(cv):len(cv)]
	grad = grad[:len(cv):len(cv)]
	var gs [SGSlotMaxBatch]float32
	for k, tv := range tvs {
		tv = tv[:len(cv):len(cv)]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i <= len(cv)-8; i += 8 {
			c := cv[i : i+8 : i+8]
			v := tv[i : i+8 : i+8]
			s0 += c[0] * v[0]
			s1 += c[1] * v[1]
			s2 += c[2] * v[2]
			s3 += c[3] * v[3]
			s0 += c[4] * v[4]
			s1 += c[5] * v[5]
			s2 += c[6] * v[6]
			s3 += c[7] * v[7]
		}
		for ; i <= len(cv)-4; i += 4 {
			c := cv[i : i+4 : i+4]
			v := tv[i : i+4 : i+4]
			s0 += c[0] * v[0]
			s1 += c[1] * v[1]
			s2 += c[2] * v[2]
			s3 += c[3] * v[3]
		}
		var t float32
		for ; i < len(cv); i++ {
			t += cv[i] * tv[i]
		}
		gs[k&(SGSlotMaxBatch-1)] = ((s0 + s1) + (s2 + s3)) + t
	}
	label := float32(1)
	for k := range tvs {
		ki := k & (SGSlotMaxBatch - 1)
		gs[ki] = (label - Sigmoid32(gs[ki])) * lr
		label = 0
	}
	// The first unsaturated target INITIALIZES grad with g*tv; there is no
	// zeroing pass and no 0 + g*tv (which would turn a -0 product into +0).
	// Later targets accumulate. If every target saturates, grad is zeroed to
	// honor the contract and the center add is skipped.
	ginit := false
	for k, tv := range tvs {
		g := gs[k&(SGSlotMaxBatch-1)]
		if g == 0 {
			continue // saturated: every update term is a zero product
		}
		tv = tv[:len(cv):len(cv)]
		i := 0
		if !ginit {
			ginit = true
			for ; i <= len(cv)-8; i += 8 {
				c := cv[i : i+8 : i+8]
				v := tv[i : i+8 : i+8]
				gr := grad[i : i+8 : i+8]
				t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
				t4, t5, t6, t7 := v[4], v[5], v[6], v[7]
				gr[0] = g * t0
				gr[1] = g * t1
				gr[2] = g * t2
				gr[3] = g * t3
				gr[4] = g * t4
				gr[5] = g * t5
				gr[6] = g * t6
				gr[7] = g * t7
				v[0] = t0 + g*c[0]
				v[1] = t1 + g*c[1]
				v[2] = t2 + g*c[2]
				v[3] = t3 + g*c[3]
				v[4] = t4 + g*c[4]
				v[5] = t5 + g*c[5]
				v[6] = t6 + g*c[6]
				v[7] = t7 + g*c[7]
			}
			for ; i < len(cv); i++ {
				t := tv[i]
				grad[i] = g * t
				tv[i] = t + g*cv[i]
			}
			continue
		}
		for ; i <= len(cv)-8; i += 8 {
			c := cv[i : i+8 : i+8]
			v := tv[i : i+8 : i+8]
			gr := grad[i : i+8 : i+8]
			t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
			t4, t5, t6, t7 := v[4], v[5], v[6], v[7]
			gr[0] += g * t0
			gr[1] += g * t1
			gr[2] += g * t2
			gr[3] += g * t3
			gr[4] += g * t4
			gr[5] += g * t5
			gr[6] += g * t6
			gr[7] += g * t7
			v[0] = t0 + g*c[0]
			v[1] = t1 + g*c[1]
			v[2] = t2 + g*c[2]
			v[3] = t3 + g*c[3]
			v[4] = t4 + g*c[4]
			v[5] = t5 + g*c[5]
			v[6] = t6 + g*c[6]
			v[7] = t7 + g*c[7]
		}
		for ; i < len(cv); i++ {
			t := tv[i]
			grad[i] += g * t
			tv[i] = t + g*cv[i]
		}
	}
	if !ginit {
		Zero(grad)
		return
	}
	i := 0
	for ; i <= len(cv)-8; i += 8 {
		c := cv[i : i+8 : i+8]
		gr := grad[i : i+8 : i+8]
		c[0] += gr[0]
		c[1] += gr[1]
		c[2] += gr[2]
		c[3] += gr[3]
		c[4] += gr[4]
		c[5] += gr[5]
		c[6] += gr[6]
		c[7] += gr[7]
	}
	for ; i < len(cv); i++ {
		cv[i] += grad[i]
	}
}

// sgSlotSeq is SGSlot's fully sequential path: each target's dot is computed
// after the previous target's update, so aliased target rows observe earlier
// updates exactly as the per-target composition does.
func sgSlotSeq(lr float32, cv, grad []float32, tvs [][]float32) {
	cv = cv[:len(cv):len(cv)]
	grad = grad[:len(cv):len(cv)]
	for i := range grad {
		grad[i] = 0
	}
	label := float32(1)
	for _, tv := range tvs {
		tv = tv[:len(cv):len(cv)]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i <= len(cv)-8; i += 8 {
			c := cv[i : i+8 : i+8]
			v := tv[i : i+8 : i+8]
			s0 += c[0] * v[0]
			s1 += c[1] * v[1]
			s2 += c[2] * v[2]
			s3 += c[3] * v[3]
			s0 += c[4] * v[4]
			s1 += c[5] * v[5]
			s2 += c[6] * v[6]
			s3 += c[7] * v[7]
		}
		for ; i <= len(cv)-4; i += 4 {
			c := cv[i : i+4 : i+4]
			v := tv[i : i+4 : i+4]
			s0 += c[0] * v[0]
			s1 += c[1] * v[1]
			s2 += c[2] * v[2]
			s3 += c[3] * v[3]
		}
		var t float32
		for ; i < len(cv); i++ {
			t += cv[i] * tv[i]
		}
		g := (label - Sigmoid32(((s0+s1)+(s2+s3))+t)) * lr
		label = 0
		if g == 0 {
			continue // saturated: every update term is a zero product
		}
		i = 0
		for ; i <= len(cv)-8; i += 8 {
			c := cv[i : i+8 : i+8]
			v := tv[i : i+8 : i+8]
			gr := grad[i : i+8 : i+8]
			t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
			t4, t5, t6, t7 := v[4], v[5], v[6], v[7]
			gr[0] += g * t0
			gr[1] += g * t1
			gr[2] += g * t2
			gr[3] += g * t3
			gr[4] += g * t4
			gr[5] += g * t5
			gr[6] += g * t6
			gr[7] += g * t7
			v[0] = t0 + g*c[0]
			v[1] = t1 + g*c[1]
			v[2] = t2 + g*c[2]
			v[3] = t3 + g*c[3]
			v[4] = t4 + g*c[4]
			v[5] = t5 + g*c[5]
			v[6] = t6 + g*c[6]
			v[7] = t7 + g*c[7]
		}
		for ; i <= len(cv)-4; i += 4 {
			c := cv[i : i+4 : i+4]
			v := tv[i : i+4 : i+4]
			gr := grad[i : i+4 : i+4]
			t0, t1, t2, t3 := v[0], v[1], v[2], v[3]
			gr[0] += g * t0
			gr[1] += g * t1
			gr[2] += g * t2
			gr[3] += g * t3
			v[0] = t0 + g*c[0]
			v[1] = t1 + g*c[1]
			v[2] = t2 + g*c[2]
			v[3] = t3 + g*c[3]
		}
		for ; i < len(cv); i++ {
			t := tv[i]
			grad[i] += g * t
			tv[i] = t + g*cv[i]
		}
	}
	i := 0
	for ; i <= len(cv)-8; i += 8 {
		c := cv[i : i+8 : i+8]
		gr := grad[i : i+8 : i+8]
		c[0] += gr[0]
		c[1] += gr[1]
		c[2] += gr[2]
		c[3] += gr[3]
		c[4] += gr[4]
		c[5] += gr[5]
		c[6] += gr[6]
		c[7] += gr[7]
	}
	for ; i < len(cv); i++ {
		cv[i] += grad[i]
	}
}
