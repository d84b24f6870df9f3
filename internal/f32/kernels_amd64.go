//go:build amd64

package f32

// The three hottest kernels have SSE2 bodies in kernels_amd64.s. SSE2 is in
// the amd64 baseline, so there is nothing to detect and nothing to select:
// GOARCH picks this file or kernels_generic.go, and the only run-time branch
// below is on the shape of the input. The assembly computes the Go bodies'
// arithmetic bit for bit (for SGSlotDistinct and MeanPoolInto one XMM
// register is exactly the 4-lane accumulator contract, for Centers.Nearest
// its two lanes are two centres' float64 sums; multiply then add, never a
// fused multiply-add) and has no bounds checks of its own: each wrapper
// performs the Go body's slice checks before entering it, and the first two
// hand every shape the assembly does not take — and every input the Go body
// answers with a panic — to the Go body unchanged. Nearest has no such
// shape: every dimension and every centre count takes the assembly.

// SGSlotDistinct is SGSlot's all-distinct-rows path: dots for every target
// first, then the sigmoid gradients, then the updates in target order. It is
// exported for callers that already know every target row is distinct — e.g.
// the trainer, which sees the sampled row ids as integers and can compare
// them for free — skipping SGSlot's per-call pointer scan. The caller's
// guarantees are the contract: 1 <= len(tvs) <= SGSlotMaxBatch, len(cv) > 0,
// and pairwise non-aliased target rows (aliased rows passed here would read
// stale values where SGSlot's sequential order shows earlier updates).
// sgSlotDistinctGo is the arithmetic it computes.
func SGSlotDistinct(lr float32, cv, grad []float32, tvs [][]float32) {
	n := len(cv)
	if n == 0 || n&3 != 0 || len(tvs) == 0 || len(tvs) > SGSlotMaxBatch {
		sgSlotDistinctGo(lr, cv, grad, tvs)
		return
	}
	// The Go body's reslices, which panic on a short grad or target row
	// before anything is written.
	grad = grad[:n]
	for _, tv := range tvs {
		_ = tv[:n]
	}
	sgSlotSSE2(lr, cv, grad, tvs)
}

// MeanPoolInto sets dst to the component-wise mean of the selected rows of
// src, skipping negative indices (the "unseen item" sentinel), and returns
// how many rows were pooled. dst is zeroed first; when nothing is pooled it
// stays zero. The accumulation is float32 sums in index order followed by a
// single multiply by 1/n — bit-identical to the scalar mean loops it
// replaced. meanPoolIntoGo is the arithmetic it computes.
func MeanPoolInto(dst []float32, src Matrix, rows []int32) int {
	c := len(dst)
	if c == 0 || c&3 != 0 || c != src.C {
		return meanPoolIntoGo(dst, src, rows)
	}
	// Rows below limit lie wholly inside src.Data; anything at or past it is
	// the Go body's to refuse.
	limit := len(src.Data) / c
	n := 0
	for _, r := range rows {
		if r < 0 {
			continue
		}
		if int(r) >= limit {
			return meanPoolIntoGo(dst, src, rows)
		}
		n++
	}
	if n == 0 {
		Zero(dst)
		return 0
	}
	meanPoolSSE2(dst, src.Data, rows, 1/float32(n))
	return n
}

// Centers holds k centres of one dimension, frozen by Load, for the
// nearest-centre scans of k-means: Load once per assignment pass, then one
// Nearest per point from any number of goroutines, each with its own scratch.
//
// Here the centres are kept widened to float64 and component-major, t[d*stride
// + c] with stride = k rounded up to even and the pad column zero, so that
// one pass over a point's components advances every centre's sum at once, two
// centres to an XMM register. Lanes are centres, not components: each lane
// performs exactly SqDist's arithmetic for its centre (the same terms in the
// same order, in float64, widening a float32 being exact), so there is no
// lane order to fix and no width the assembly does not take. centersGo is
// the function it computes.
type Centers struct {
	k, dim, stride int
	t              []float64
	// ⌈k/2⌉ centre pairs split into the fewest passes of at most
	// sqDistMaxPairs, sized as evenly as they go: the first extra passes take
	// pairs+1, the rest pairs. A pass's add chains hide each other's latency,
	// so 10 pairs are 5+5 and never 6+4, and no pass is left with one pair
	// while another has six.
	passes, pairs, extra int
}

// sqDistMaxPairs is the most centre pairs sqDistPairsSSE2 takes in one call:
// an accumulator register each, X0 to X5.
const sqDistMaxPairs = 6

// Load copies the centres (the rows of m) in; later writes to m are not seen.
// The copy's storage is reused while the shape stays the same.
func (c *Centers) Load(m Matrix) {
	if len(m.Data) != m.R*m.C {
		panic("f32: Centers.Load: data length does not match dimensions")
	}
	if c.k != m.R || c.dim != m.C {
		c.k, c.dim, c.stride = m.R, m.C, (m.R+1)&^1
		c.t = make([]float64, c.dim*c.stride)
		n := c.stride / 2
		c.passes = (n + sqDistMaxPairs - 1) / sqDistMaxPairs
		c.pairs, c.extra = n/max(c.passes, 1), n%max(c.passes, 1)
	}
	for r := 0; r < c.k; r++ {
		for d, v := range m.Data[r*c.dim : (r+1)*c.dim] {
			c.t[d*c.stride+r] = float64(v)
		}
	}
}

// Scratch allocates what Nearest needs as scratch for the centres loaded:
// one float64 per centre, rounded up to even. One per goroutine.
func (c *Centers) Scratch() []float64 { return make([]float64, c.stride) }

// Nearest returns the centre nearest to p[:dim] and its squared distance, as
// SqDist computes it. The scan starts from centre first and visits the
// others in index order, taking a strictly smaller distance or an equal one
// at a lower index. It panics on a p shorter than dim, a scratch shorter
// than Scratch returns, and a first that is not a centre.
//
// Every distance is computed in full where the Go body stops a centre's sum
// once it exceeds the incumbent's. The answer is the same: a sum cut short
// is returned above the incumbent and loses; run to the end it is no smaller
// (the terms are non-negative; a NaN compares false either way) and loses
// again; and a centre that wins was summed to the end in both.
func (c *Centers) Nearest(p []float32, first int, scratch []float64) (int, float64) {
	// The assembly has no bounds checks: these are them. (A bare reslice
	// would let a short slice grow into its capacity.)
	if len(p) < c.dim || len(scratch) < c.stride {
		panic("f32: Centers.Nearest: p or scratch too short")
	}
	p, scratch = p[:c.dim], scratch[:c.stride]
	off := 0
	for i := 0; i < c.passes; i++ {
		n := c.pairs
		if i < c.extra {
			n++
		}
		sqDistPairsSSE2(p, c.t, c.stride, scratch, off, n)
		off += 2 * n
	}
	dist := scratch[:c.k]
	best, bestD := first, dist[first]
	for i, d := range dist {
		if d < bestD || (d == bestD && i < best) {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// sgSlotSSE2 is SGSlotDistinct for len(cv) a positive multiple of 4 and
// 1..SGSlotMaxBatch target rows, each (and grad) at least len(cv) long.
//
//go:noescape
func sgSlotSSE2(lr float32, cv, grad []float32, tvs [][]float32)

// meanPoolSSE2 is MeanPoolInto for len(dst) a positive multiple of 4 that is
// also the row width of data, at least one non-negative index, every
// non-negative index a whole row of data, and inv = 1/float32(rows pooled).
//
//go:noescape
func meanPoolSSE2(dst, data []float32, rows []int32, inv float32)

// sqDistPairsSSE2 sets dist[off+j] = SqDist(p, centre off+j) for the 2*pairs
// centres from off on, 1 <= pairs <= sqDistMaxPairs, off even: t is the
// component-major float64 layout of Centers, len(p) rows of stride, and dist
// and every row of t hold at least off+2*pairs values.
//
//go:noescape
func sqDistPairsSSE2(p []float32, t []float64, stride int, dist []float64, off, pairs int)
