package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the highest
// supported percentile above it, and the sample count.
type summary struct {
	N      int
	Median float64
	// Upper is the value at percentile UpperPct, the highest of
	// upperPercentiles with at least minBeyond samples beyond it; UpperPct
	// is 0 when n is too small to support any of them.
	UpperPct float64
	Upper    float64
}

// upperPercentiles are the candidates for the "percentile above the
// median"; minBeyond is how many samples must lie beyond the one reported,
// so a single slow outlier can never be the reported value.
var upperPercentiles = []float64{75, 90, 95, 99, 99.9}

const minBeyond = 10

// highestSupported returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when none does.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range upperPercentiles {
		// The samples beyond the percentile's rank, rounded down (the
		// epsilon absorbs 100-99.9 not being exactly 0.1).
		if int(float64(n)*(100-p)/100+1e-9) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; sorted must be ascending, non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize applies the percentile rule to a sample set (zero value for
// an empty one).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	out := summary{N: len(s), Median: percentile(s, 50)}
	if p := highestSupported(len(s)); p > 0 {
		out.UpperPct, out.Upper = p, percentile(s, p)
	}
	return out
}

func median(xs []float64) float64 { return summarize(xs).Median }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance check of this benchmark uses; len(xs) must be at least 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the distance between the quartiles as a share of the median.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// grouped holds the latency samples of one operation keyed by script kind —
// the (dataset, variant) pair a script ran. Different kinds cost different
// amounts (a filter that keeps 10 % of the rows against one that keeps
// 45 %), so their pooled distribution is multi-modal and its median jumps
// from mode to mode when the mixture shifts a little, which it does from
// seed to seed. A kind's own median does not; the reported figure is the
// mean of the kinds' medians, every kind weighing the same.
type grouped map[string][]float64

func (g grouped) add(kind string, v float64) { g[kind] = append(g[kind], v) }

func (g grouped) n() int {
	n := 0
	for _, xs := range g {
		n += len(xs)
	}
	return n
}

// typical is the mean over kinds of each kind's median (0 when empty).
func (g grouped) typical() float64 {
	if len(g) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range g {
		sum += median(xs)
	}
	return sum / float64(len(g))
}

// tailPct is the percentile tails are reported at: the highest one the
// sample floor of 100 scripts per run supports (10 samples beyond it).
const tailPct = 90

// tailFactor is how much slower than typical-for-its-kind the slow scripts
// are: the 90th percentile of every sample divided by its own kind's
// median, or (0, 0) with too few samples to support it. Being relative to
// the kind, it measures stalls and jitter, not which kinds are slow.
func (g grouped) tailFactor() (pct, factor float64) {
	var ratios []float64
	for _, xs := range g {
		m := median(xs)
		for _, x := range xs {
			ratios = append(ratios, x/m)
		}
	}
	if highestSupported(len(ratios)) < tailPct {
		return 0, 0
	}
	return tailPct, percentile(sortedCopy(ratios), tailPct)
}

// Visit classes: where the model of a script came from.
const (
	classWarm   = "warm"   // served from memory
	classReload = "reload" // loaded from the disk cache during the script
	classMixed  = "mixed"  // anything else; never sampled
)

// classify names a script's class from the store counter deltas observed
// around it by a single client: a reload script loads its model from disk
// exactly once (at session open) and hits memory afterwards, a warm script
// never touches the disk, and nothing in the timed phase may build.
func classify(diskLoads, builds int64) string {
	switch {
	case builds != 0 || diskLoads < 0 || diskLoads > 1:
		return classMixed
	case diskLoads == 1:
		return classReload
	default:
		return classWarm
	}
}
