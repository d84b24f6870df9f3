//go:build !amd64

package f32

// SGSlotDistinct is SGSlot's all-distinct-rows path, exported for callers
// that already know every target row is distinct. On this target it is the
// Go body; kernels_amd64.go documents the contract.
func SGSlotDistinct(lr float32, cv, grad []float32, tvs [][]float32) {
	sgSlotDistinctGo(lr, cv, grad, tvs)
}

// MeanPoolInto sets dst to the component-wise mean of the selected rows of
// src and returns how many were pooled. On this target it is the Go body;
// kernels_amd64.go documents the contract.
func MeanPoolInto(dst []float32, src Matrix, rows []int32) int {
	return meanPoolIntoGo(dst, src, rows)
}

// Centers holds k centres for nearest-centre scans. On this target it is the
// Go body; kernels_amd64.go documents the contract.
type Centers = centersGo
