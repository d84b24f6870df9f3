// Package stats provides the small statistical toolkit the binner needs:
// descriptive statistics, quantiles, and a Gaussian kernel density estimator
// whose density valleys drive the paper's KDE-based binning (the paper's
// implementation uses SciPy's gaussian_kde for the same purpose).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (0 for len < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MinMax returns the minimum and maximum of xs; it panics on empty input.
func MinMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	mn, mx := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// Quantile returns the q-th quantile (0 <= q <= 1) of sorted xs using linear
// interpolation. xs must be sorted ascending and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns the k+1 quantile cut points dividing sorted xs into k
// equal-frequency parts, i.e. quantiles at 0, 1/k, ..., 1.
func Quantiles(sorted []float64, k int) []float64 {
	cuts := make([]float64, k+1)
	for i := 0; i <= k; i++ {
		cuts[i] = Quantile(sorted, float64(i)/float64(k))
	}
	return cuts
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth for a
// Gaussian KDE over xs. A tiny floor keeps the KDE well-defined for
// (near-)constant data.
func SilvermanBandwidth(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 1
	}
	sd := StdDev(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	iqr := Quantile(sorted, 0.75) - Quantile(sorted, 0.25)
	a := sd
	if iqr > 0 && iqr/1.349 < a {
		a = iqr / 1.349
	}
	if a <= 0 {
		a = 1e-9
	}
	return 0.9 * a * math.Pow(n, -0.2)
}

// KDE is a Gaussian kernel density estimate over a fixed sample.
//
// Evaluation is optimized for the binner's workload (hundreds of grid
// evaluations over samples of a few thousand points, per numeric column, on
// the preprocess cold path): the sample is kept sorted so each evaluation
// only visits points within the kernel's effective support, and the Gaussian
// kernel itself is a linearly interpolated lookup table. Both are documented
// approximations: contributions beyond |z| > kdeCutoff (where the kernel is
// < 4e-15) are dropped, and the table interpolation carries ~1e-6 relative
// error — far below the resolution at which density valleys move between
// grid cells. The summation order is the sorted-sample order, fixed for a
// given sample, so Density stays a pure deterministic function of
// (sample, bandwidth, x).
type KDE struct {
	sample    []float64 // sorted ascending
	bandwidth float64
}

const (
	// kdeCutoff truncates the Gaussian kernel: exp(-0.5 z²) at |z| = 8 is
	// ~1.3e-14, below the float64 noise floor of any realistic sum.
	kdeCutoff = 8.0
	// kdeTableSize is the kernel lookup resolution over [0, kdeCutoff²/2):
	// 4096 cells of exp(-u) with linear interpolation keep the relative
	// error under ~1e-6.
	kdeTableSize = 4096
	kdeTableMax  = kdeCutoff * kdeCutoff / 2
	kdeTableStep = kdeTableMax / kdeTableSize
)

// kdeExpTable[i] = exp(-i * kdeTableStep); one extra entry so interpolation
// can always read i+1.
var kdeExpTable = func() [kdeTableSize + 2]float64 {
	var t [kdeTableSize + 2]float64
	for i := range t {
		t[i] = math.Exp(-float64(i) * kdeTableStep)
	}
	return t
}()

// kdeKernel approximates exp(-u) for u in [0, kdeTableMax) by linear
// interpolation of kdeExpTable.
func kdeKernel(u float64) float64 {
	p := u * (1 / kdeTableStep)
	i := int(p)
	frac := p - float64(i)
	return kdeExpTable[i] + frac*(kdeExpTable[i+1]-kdeExpTable[i])
}

// NewKDE builds a KDE over xs with the given bandwidth; bandwidth <= 0 uses
// Silverman's rule. The sample is copied (and kept sorted internally).
func NewKDE(xs []float64, bandwidth float64) *KDE {
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(xs)
	}
	sample := append([]float64(nil), xs...)
	sort.Float64s(sample)
	return &KDE{sample: sample, bandwidth: bandwidth}
}

// Density evaluates the estimated density at x.
func (k *KDE) Density(x float64) float64 {
	if len(k.sample) == 0 {
		return 0
	}
	const invSqrt2Pi = 0.3989422804014327
	// Only points within the kernel's effective support contribute; the
	// sorted sample turns that window into one binary search plus a
	// contiguous scan.
	r := kdeCutoff * k.bandwidth
	lo := sort.SearchFloat64s(k.sample, x-r)
	sum := 0.0
	invBW := 1 / k.bandwidth
	for _, s := range k.sample[lo:] {
		if s > x+r {
			break
		}
		z := (x - s) * invBW
		sum += kdeKernel(0.5*z*z) * invSqrt2Pi
	}
	return sum / (float64(len(k.sample)) * k.bandwidth)
}

// Grid evaluates the density at m evenly spaced points spanning
// [min - bw, max + bw] and returns the points and densities.
func (k *KDE) Grid(m int) (xs, ds []float64) {
	if len(k.sample) == 0 || m < 2 {
		return nil, nil
	}
	mn, mx := k.sample[0], k.sample[len(k.sample)-1]
	lo, hi := mn-k.bandwidth, mx+k.bandwidth
	xs = make([]float64, m)
	ds = make([]float64, m)
	step := (hi - lo) / float64(m-1)
	for i := 0; i < m; i++ {
		xs[i] = lo + float64(i)*step
		ds[i] = k.Density(xs[i])
	}
	return xs, ds
}

// DensityValleys returns the x-positions of local minima of the density
// evaluated on an m-point grid, sorted ascending. These are natural bin
// boundaries: they separate modes of the distribution.
func (k *KDE) DensityValleys(m int) []float64 {
	xs, ds := k.Grid(m)
	var valleys []float64
	for i := 1; i < len(ds)-1; i++ {
		if ds[i] < ds[i-1] && ds[i] <= ds[i+1] {
			valleys = append(valleys, xs[i])
		}
	}
	return valleys
}
