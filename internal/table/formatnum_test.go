package table_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"subtab/internal/table"
)

// fmtFormatNum is the fmt body FormatNum replaced: the byte contract every
// renderer (CellString, Value.String, the paged column store) and the
// residual filter's ParseFloat round trip rely on.
func fmtFormatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

// checkFormatNum asserts FormatNum(v) equals the fmt body and, for every
// non-NaN v, parses back to the same bits — the round trip the residual
// filter check (query.Predicate.MatchesCell) relies on.
func checkFormatNum(t *testing.T, v float64) {
	t.Helper()
	got := table.FormatNum(v)
	if want := fmtFormatNum(v); got != want {
		t.Fatalf("FormatNum(%v) [bits %#016x] = %q, fmt gives %q", v, math.Float64bits(v), got, want)
	}
	if back, err := strconv.ParseFloat(got, 64); !math.IsNaN(v) && (err != nil || math.Float64bits(back) != math.Float64bits(v)) {
		t.Fatalf("FormatNum(%v) = %q parses back to %v (%v)", v, got, back, err)
	}
}

// TestFormatNumMatchesFmt pins FormatNum byte for byte against the fmt
// body over the edge values and a million seeded random values drawn from
// raw bit patterns, integers on both sides of the 1e15 switch and short
// decimals.
func TestFormatNumMatchesFmt(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.5, -2.5,
		math.Inf(1), math.Inf(-1), math.NaN(),
		1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 1, 1e15 + 2, -(1e15 + 2),
		math.Nextafter(1e15, 0), math.Nextafter(1e15, math.Inf(1)),
		999999999999999.5, 1e21, 1e20, 123456789012345678,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.MaxFloat64, -math.MaxFloat64,
		1 << 53, 1<<53 + 1, -(1 << 53), 1 << 62, -(1 << 63),
		0.1, 1e-5, 1e-4, 123456.75, 1e6, 1e-7, 100000, 1e21 - 1,
	}
	for _, v := range edges {
		checkFormatNum(t, v)
	}
	rng := rand.New(rand.NewSource(20231017))
	for i := 0; i < 1_000_000; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = float64(rng.Int63n(2e15) - 1e15) // integral, both sides of ±1e15 excluded
		case 2:
			v = math.Trunc(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(18))))
		default:
			v = math.Round(rng.NormFloat64()*1e6) / math.Pow(10, float64(rng.Intn(8)))
		}
		checkFormatNum(t, v)
	}
}

// FuzzFormatNum checks FormatNum against the fmt body on arbitrary float64
// bit patterns.
func FuzzFormatNum(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e15, 1e15 - 1, math.Inf(1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFormatNum(t, math.Float64frombits(bits))
	})
}
