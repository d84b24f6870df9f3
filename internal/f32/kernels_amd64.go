//go:build amd64

package f32

// The two hottest kernels have SSE2 bodies in kernels_amd64.s. SSE2 is in the
// amd64 baseline, so there is nothing to detect and nothing to select: GOARCH
// picks this file or kernels_generic.go, and the only run-time branch below
// is on the shape of the input. The assembly computes the Go bodies'
// arithmetic bit for bit (one XMM register is exactly the 4-lane accumulator
// contract; MULPS then ADDPS, never a fused multiply-add) and has no bounds
// checks of its own: each wrapper performs the Go body's slice checks before
// entering it, and hands every shape the assembly does not take — and every
// input the Go body answers with a panic — to the Go body unchanged.

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
