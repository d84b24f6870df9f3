package f32

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the exported SGSlotDistinct and MeanPoolInto against
// their Go bodies. On amd64 the exported functions are the SSE2 assembly, so
// this is where "bit-identical" is tested rather than asserted; on every
// other target both sides are the Go body and the tests hold trivially.
//
// Outputs are compared with math.Float32bits, with one class folded: a NaN
// on one side must be a NaN on the other, payload and sign unspecified (the
// package comment says why). Whether an output IS a NaN is fully determined,
// and every consumer — the sigmoid's table clamp, the g == 0 test, further
// arithmetic — treats all NaNs alike.

// firstDiff returns the first index where a and b differ in bits, -1 if none.
func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return i
		}
	}
	return -1
}

// specials are the values where an assembly body is likeliest to part from
// the Go one: signed zeros, denormals (FTZ/DAZ are off), infinities, NaN, the
// sigmoid's saturation points and their neighbours, and magnitudes whose
// products overflow.
var specials = [...]float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	6, -6, math.Nextafter32(6, 0), math.Nextafter32(-6, 0), math.Nextafter32(6, 7), 7, -7,
	1, -1, 0.5, 1e30, -1e30, 1e-30, math.MaxFloat32,
}

// floatSource turns fuzz bytes into float32 values, two bytes a value, read
// cyclically (each pass perturbed, so a short input does not repeat rows).
// The top three bits choose the kind: mostly moderate values that keep dots
// inside the sigmoid's table, the rest specials, raw high halves (every
// exponent) and tiny values.
type floatSource struct {
	data []byte
	pos  int
	pass uint16
}

func (s *floatSource) next() float32 {
	if len(s.data) < 2 {
		s.data = []byte{0x12, 0x34}
	}
	if s.pos+2 > len(s.data) {
		s.pos = 0
		s.pass += 0x9e37
	}
	u := uint16(s.data[s.pos]) | uint16(s.data[s.pos+1])<<8
	s.pos += 2
	payload := (u ^ s.pass) & 0x1fff
	switch u >> 13 {
	case 5:
		return specials[int(payload)%len(specials)]
	case 6:
		return math.Float32frombits(uint32(payload) << 19)
	case 7:
		return float32(payload) * 1e-9
	default:
		return (float32(payload) - 4096) / 2048
	}
}

func (s *floatSource) fill(x []float32) {
	for i := range x {
		x[i] = s.next()
	}
}

// carve returns n floats starting off elements into a fresh array, with no
// spare capacity, so that off = 0..3 walks every alignment mod 16 bytes.
func carve(n, off int) []float32 {
	buf := make([]float32, off+n)
	return buf[off : off+n : off+n]
}

type slotState struct {
	cv, grad []float32
	tvs      [][]float32
}

func (s slotState) clone(off int) slotState {
	c := slotState{cv: carve(len(s.cv), off), grad: carve(len(s.grad), (off+1)&3), tvs: make([][]float32, len(s.tvs))}
	copy(c.cv, s.cv)
	copy(c.grad, s.grad)
	for k, tv := range s.tvs {
		c.tvs[k] = carve(len(tv), (off+k)&3)
		copy(c.tvs[k], tv)
	}
	return c
}

func (s slotState) diff(o slotState) string {
	if i := firstDiff(s.cv, o.cv); i >= 0 {
		return fmt.Sprintf("cv[%d]: %x vs %x", i, math.Float32bits(s.cv[i]), math.Float32bits(o.cv[i]))
	}
	if i := firstDiff(s.grad, o.grad); i >= 0 {
		return fmt.Sprintf("grad[%d]: %x vs %x", i, math.Float32bits(s.grad[i]), math.Float32bits(o.grad[i]))
	}
	for k := range s.tvs {
		if i := firstDiff(s.tvs[k], o.tvs[k]); i >= 0 {
			return fmt.Sprintf("tvs[%d][%d]: %x vs %x", k, i, math.Float32bits(s.tvs[k][i]), math.Float32bits(o.tvs[k][i]))
		}
	}
	return ""
}

// checkSlot applies the exported kernel and the Go body three times back to
// back to copies of one state (so the second and third applications start
// from the first's output, saturated or blown up as it may be) and requires
// identical bits after each.
func checkSlot(t *testing.T, lr float32, init slotState, off int) {
	t.Helper()
	got, want := init.clone(off), init.clone(0)
	for round := 0; round < 3; round++ {
		SGSlotDistinct(lr, got.cv, got.grad, got.tvs)
		sgSlotDistinctGo(lr, want.cv, want.grad, want.tvs)
		if d := got.diff(want); d != "" {
			t.Fatalf("width %d, %d targets, offset %d, lr %v, application %d: exported vs Go body: %s",
				len(init.cv), len(init.tvs), off, lr, round+1, d)
		}
	}
}

func slotFromSource(src *floatSource, n, targets int) slotState {
	s := slotState{cv: make([]float32, n), grad: make([]float32, n), tvs: make([][]float32, targets)}
	src.fill(s.cv)
	src.fill(s.grad) // stale garbage: the kernel must overwrite it
	for k := range s.tvs {
		s.tvs[k] = make([]float32, n)
		src.fill(s.tvs[k])
	}
	return s
}

var kernelWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 31, 32, 33, 64, 100}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestSGSlotDistinctMatchesGoBody sweeps widths × target counts × alignments
// over generated states, at learning rates from zero (every g is ±0: the
// all-saturated exit) through the trainer's to one that overflows everything
// on the first application.
func TestSGSlotDistinctMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lrs := []float32{0.025, 1, 0, 1e30, float32(math.NaN())}
	for _, n := range kernelWidths {
		for targets := 1; targets <= SGSlotMaxBatch; targets++ {
			for off := 0; off < 4; off++ {
				src := &floatSource{data: randomBytes(rng, 64+rng.Intn(512))}
				checkSlot(t, lrs[rng.Intn(len(lrs))], slotFromSource(src, n, targets), off)
				// And one with plain values only, so that what differs is the
				// learning rate: most targets update, none does, all overflow,
				// every g is a NaN (which is not zero: all update).
				plain := slotFromSource(&floatSource{data: []byte{byte(rng.Intn(256)), byte(rng.Intn(0xa0))}}, n, targets)
				for _, lr := range lrs {
					checkSlot(t, lr, plain, off)
				}
			}
		}
	}
}

// TestSGSlotDistinctSaturation pins the update phase's three shapes with
// logits placed by hand: every target saturated (grad zeroed, cv untouched),
// only the first saturated (a later target initializes grad), and an
// unsaturated first target whose g*t products are -0 (initializing with
// g*t keeps them; 0 + g*t would not).
func TestSGSlotDistinctSaturation(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{4, 16, 32, 6} {
		for targets := 1; targets <= SGSlotMaxBatch; targets++ {
			row := func(first float32) []float32 {
				r := make([]float32, n)
				r[0] = first
				for i := 1; i < n; i++ {
					r[i] = float32(i%5) * 0.01
				}
				return r
			}
			cv := make([]float32, n)
			cv[0] = 1 // the dot with row(x) is exactly x

			all := slotState{cv: cv, grad: row(9), tvs: make([][]float32, targets)}
			first := slotState{cv: cv, grad: row(9), tvs: make([][]float32, targets)}
			zeros := slotState{cv: cv, grad: row(9), tvs: make([][]float32, targets)}
			for k := range all.tvs {
				all.tvs[k] = row(-6 - float32(k)) // label 0, sigmoid exactly 0
				first.tvs[k] = row(0.25 * float32(k))
				zeros.tvs[k] = make([]float32, n) // dot 0; g > 0 for k = 0, g < 0 after
				if k == 0 {
					for i := range zeros.tvs[k] {
						zeros.tvs[k][i] = negZero
					}
				}
			}
			all.tvs[0] = row(6) // label 1, sigmoid exactly 1
			first.tvs[0] = row(7)
			for off := 0; off < 4; off++ {
				checkSlot(t, 0.025, all, off)
				checkSlot(t, 0.025, first, off)
				checkSlot(t, 0.025, zeros, off)
			}

			// Spot-check the documented outcomes on the exported function
			// itself, not only its agreement with the Go body.
			s := all.clone(0)
			SGSlotDistinct(0.025, s.cv, s.grad, s.tvs)
			if firstDiff(s.cv, cv) >= 0 || firstDiff(s.grad, make([]float32, n)) >= 0 {
				t.Fatalf("width %d, %d targets: all saturated must zero grad and leave cv", n, targets)
			}
			s = zeros.clone(0)
			SGSlotDistinct(0.025, s.cv, s.grad, s.tvs)
			if targets == 1 && math.Float32bits(s.grad[1]) != math.Float32bits(negZero) {
				t.Fatalf("width %d: grad initialized from a -0 product must be -0, got %x", n, math.Float32bits(s.grad[1]))
			}
		}
	}
}

// TestSGSlotDistinctSigmoidCells walks the logit across every cell boundary
// of the sigmoid table, a few ulps to each side, and across both saturation
// points, as the positive target and as a negative one: any disagreement in
// the table index, the clamp or the saturation order changes g and so the
// outputs.
func TestSGSlotDistinctSigmoidCells(t *testing.T) {
	cv := []float32{1, 0, 0, 0}
	for i := -2; i <= sigTableSize+2; i++ {
		x := float32(float64(i)/sigScale - sigMax)
		for _, dir := range []float32{float32(math.Inf(-1)), float32(math.Inf(1))} {
			v := x
			for step := 0; step < 4; step++ {
				pos := slotState{cv: cv, grad: make([]float32, 4), tvs: [][]float32{{v, 0.5, -0.5, 0.25}}}
				neg := slotState{cv: cv, grad: make([]float32, 4), tvs: [][]float32{{0.125, 0, 1, 1}, {v, 0.5, -0.5, 0.25}}}
				checkSlot(t, 1, pos, 0)
				checkSlot(t, 1, neg, 0)
				v = math.Nextafter32(v, dir)
			}
		}
	}
}

// TestSSE2SigmoidConstants ties the float32 bit patterns written out in
// kernels_amd64.s to the Go constants they stand for.
func TestSSE2SigmoidConstants(t *testing.T) {
	for _, c := range []struct {
		name string
		v    float32
		bits uint32
	}{
		{"sigMax", sigMax, 0x40c00000},
		{"-sigMax", -sigMax, 0xc0c00000},
		{"sigScale", sigScale, 0x42aaaaab},
		{"sigTableSize-1", sigTableSize - 1, 0x447fc000},
	} {
		if got := math.Float32bits(c.v); got != c.bits {
			t.Errorf("%s is %#x; kernels_amd64.s has %#x", c.name, got, c.bits)
		}
	}
}

// panics runs fn and reports whether it panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestSGSlotDistinctPanicParity: the assembly has no bounds checks, so what
// the Go body refuses must be refused before the assembly runs, and what it
// tolerates outside its contract must come out as the Go body computes it.
func TestSGSlotDistinctPanicParity(t *testing.T) {
	const n = 32
	fresh := func(targets int) slotState {
		return slotFromSource(&floatSource{data: []byte{3, 1, 4, 1, 5, 9, 2, 6}}, n, targets).clone(0)
	}
	bodies := map[string]func(float32, []float32, []float32, [][]float32){
		"exported": SGSlotDistinct, "Go body": sgSlotDistinctGo,
	}
	for name, body := range bodies {
		s := fresh(5)
		s.tvs[3] = carve(n-1, 0)
		before := s.clone(0)
		if !panics(func() { body(0.025, s.cv, s.grad, s.tvs) }) {
			t.Errorf("%s: a target row shorter than cv must panic", name)
		}
		if d := s.diff(before); d != "" {
			t.Errorf("%s: wrote before refusing a short target row: %s", name, d)
		}
		s = fresh(5)
		s.grad = carve(n-4, 0)
		if !panics(func() { body(0.025, s.cv, s.grad, s.tvs) }) {
			t.Errorf("%s: a grad shorter than cv must panic", name)
		}
	}
	// Nine targets is past the batch bound: the Go body masks its gradient
	// index, and the exported function must hand it exactly that.
	got, want := fresh(SGSlotMaxBatch+1), fresh(SGSlotMaxBatch+1)
	SGSlotDistinct(0.025, got.cv, got.grad, got.tvs)
	sgSlotDistinctGo(0.025, want.cv, want.grad, want.tvs)
	if d := got.diff(want); d != "" {
		t.Errorf("nine targets: exported vs Go body: %s", d)
	}
	// No targets: grad is zeroed.
	got = fresh(0)
	SGSlotDistinct(0.025, got.cv, got.grad, got.tvs)
	if firstDiff(got.grad, make([]float32, n)) >= 0 {
		t.Error("no targets: grad must be zeroed")
	}
}

// checkPool pools rows of an r×c matrix (its data carved at srcOff) into a
// dst carved at dstOff and prefilled with garbage, through the exported
// kernel and the Go body.
func checkPool(t *testing.T, src *floatSource, r, c int, rows []int32, dstOff, srcOff int) {
	t.Helper()
	m := Wrap(r, c, carve(r*c, srcOff))
	src.fill(m.Data)
	got, want := carve(c, dstOff), make([]float32, c)
	src.fill(got)
	copy(want, got)
	gn := MeanPoolInto(got, m, rows)
	wn := meanPoolIntoGo(want, m, rows)
	if gn != wn {
		t.Fatalf("width %d, %d indices: pooled %d rows, Go body %d", c, len(rows), gn, wn)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("width %d, %d indices, offsets %d/%d: dst[%d] = %x, Go body %x",
			c, len(rows), dstOff, srcOff, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestMeanPoolIntoMatchesGoBody sweeps widths × alignments × index lists:
// empty, all negative, one row, one row repeated, mixed with unseen-item
// sentinels, and 20 000 long (sums that lose low bits row after row, so the
// order of the adds is what is being compared).
func TestMeanPoolIntoMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const r = 37
	long := make([]int32, 20000)
	for i := range long {
		long[i] = int32(rng.Intn(r+3) - 3)
	}
	mixed := make([]int32, 31)
	for i := range mixed {
		mixed[i] = int32(rng.Intn(r+2) - 2)
	}
	lists := [][]int32{nil, {-1, -1, -7}, {5}, {0, 0, 0, 0, 0, 0, 0}, {r - 1, 0, r - 1}, mixed, long}
	for _, c := range kernelWidths {
		for off := 0; off < 4; off++ {
			for _, rows := range lists {
				checkPool(t, &floatSource{data: randomBytes(rng, 256)}, r, c, rows, off, (off+c)&3)
				// Plain values only: the sums stay finite.
				checkPool(t, &floatSource{data: []byte{byte(rng.Intn(256)), byte(rng.Intn(0xa0))}}, r, c, rows, off, 3-off)
			}
		}
	}
}

// TestMeanPoolIntoPanicParity: an index one past the last row must panic in
// both bodies; a dst longer than a row panics, a shorter one takes each
// row's leading components, and a matrix whose backing array runs past its
// rows is read as far as the Go body reads it.
func TestMeanPoolIntoPanicParity(t *testing.T) {
	const r, c = 9, 32
	m := New(r, c)
	(&floatSource{data: []byte{2, 7, 1, 8, 2, 8}}).fill(m.Data)
	bodies := map[string]func([]float32, Matrix, []int32) int{
		"exported": MeanPoolInto, "Go body": meanPoolIntoGo,
	}
	for name, body := range bodies {
		if !panics(func() { body(make([]float32, c), m, []int32{0, r, 1}) }) {
			t.Errorf("%s: index == src.R must panic", name)
		}
		if !panics(func() { body(make([]float32, c+4), m, []int32{0, 1}) }) {
			t.Errorf("%s: len(dst) > src.C must panic", name)
		}
	}
	for _, short := range []int{c - 4, c - 16, 5} {
		got, want := make([]float32, short), make([]float32, short)
		gn := MeanPoolInto(got, m, []int32{3, -1, 8, 3})
		wn := meanPoolIntoGo(want, m, []int32{3, -1, 8, 3})
		if gn != wn || firstDiff(got, want) >= 0 {
			t.Errorf("len(dst) = %d < src.C: exported and Go body disagree", short)
		}
	}
	view := Wrap(r-2, c, m.Data[:(r-2)*c])
	got, want := make([]float32, c), make([]float32, c)
	if gn, wn := MeanPoolInto(got, view, []int32{0, r - 2}), meanPoolIntoGo(want, view, []int32{0, r - 2}); gn != wn || firstDiff(got, want) >= 0 {
		t.Error("index past R inside cap(Data): exported and Go body disagree")
	}
}

// FuzzSGSlotDistinct drives the differential check from fuzz bytes: values
// from data (see floatSource), width 1..100, 1..8 targets, any alignment,
// any learning-rate bit pattern.
func FuzzSGSlotDistinct(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}, uint8(31), uint8(4), uint8(0), math.Float32bits(0.025))
	f.Add([]byte{0xff, 0xbf, 0x00, 0xa0, 0x07, 0xa0}, uint8(15), uint8(7), uint8(1), math.Float32bits(1))
	f.Add([]byte{0x00, 0xc0, 0xff, 0xdf}, uint8(3), uint8(0), uint8(2), math.Float32bits(1e30))
	f.Add([]byte{}, uint8(99), uint8(2), uint8(3), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, width, targets, off uint8, lrBits uint32) {
		src := &floatSource{data: data}
		s := slotFromSource(src, 1+int(width)%100, 1+int(targets)%SGSlotMaxBatch)
		checkSlot(t, math.Float32frombits(lrBits), s, int(off)&3)
	})
}

// FuzzMeanPoolInto drives the pool differential from fuzz bytes: values from
// data, width 1..100, 1..16 source rows, one index per byte of idx (-1, the
// unseen-item sentinel, through the last row).
func FuzzMeanPoolInto(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56, 0x78}, []byte{0, 1, 2, 3, 4, 5, 6}, uint8(31), uint8(7), uint8(0))
	f.Add([]byte{0xff, 0xbf, 0x00, 0xa0, 0x07, 0xa0}, []byte{9, 9, 9}, uint8(15), uint8(2), uint8(1))
	f.Add([]byte{0x00, 0xc0}, []byte{}, uint8(3), uint8(0), uint8(2))
	f.Add([]byte{0x07, 0xa0, 0x01, 0xa0}, []byte{0, 0, 0, 0}, uint8(63), uint8(15), uint8(3))
	f.Fuzz(func(t *testing.T, data, idx []byte, width, nrows, off uint8) {
		r := 1 + int(nrows)%16
		rows := make([]int32, len(idx))
		for i, b := range idx {
			rows[i] = int32(int(b)%(r+1)) - 1
		}
		checkPool(t, &floatSource{data: data}, r, 1+int(width)%100, rows, int(off)&3, int(off>>2)&3)
	})
}

// The benchmarks run both bodies in one process at the trainer's shape
// (width 32, a positive and four negatives) and the selection's (31 pooled
// rows of width 32), so their ratio is not a comparison across runs. "asm"
// is the exported function: the SSE2 body on amd64, the Go body elsewhere.

func BenchmarkSGSlotDistinct(b *testing.B) {
	for _, body := range []struct {
		name string
		fn   func(float32, []float32, []float32, [][]float32)
	}{{"go", sgSlotDistinctGo}, {"asm", SGSlotDistinct}} {
		b.Run(body.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			// A vocabulary of rows, as the trainer has: each slot draws
			// its center and targets from it, and the values stay in the
			// range where the sigmoid rarely saturates.
			vocab := randMatrix(rng, 256, 32)
			Scale(0.2, vocab.Data)
			ctx := randMatrix(rng, 256, 32)
			Scale(0.2, ctx.Data)
			grad := make([]float32, 32)
			tvs := make([][]float32, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := (i * 7) & 255
				for k := range tvs {
					tvs[k] = ctx.Row((base + 13*k) & 255)
				}
				body.fn(1e-4, vocab.Row(i&255), grad, tvs)
			}
		})
	}
}

func BenchmarkMeanPoolInto(b *testing.B) {
	for _, body := range []struct {
		name string
		fn   func([]float32, Matrix, []int32) int
	}{{"go", meanPoolIntoGo}, {"asm", MeanPoolInto}} {
		b.Run(body.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			items := randMatrix(rng, 160, 32)
			idx := make([]int32, 31*64)
			for i := range idx {
				idx[i] = int32(rng.Intn(160))
			}
			dst := make([]float32, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := i & 63
				body.fn(dst, items, idx[row*31:(row+1)*31])
			}
		})
	}
}

// Differential tests of Centers against centersGo, its Go body. What is
// compared is the answer, index and distance bits, at every starting centre,
// and — where the body computes them — every centre's own distance against
// SqDist, NaNs folded as above.

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkNearest loads the centres into both bodies and asks both for p's
// nearest centre starting from each centre in turn, with p at float32 offset
// pOff and the scratch at float64 offset sOff of their arrays.
func checkNearest(t *testing.T, m Matrix, p []float32, pOff, sOff int) {
	t.Helper()
	var got Centers
	var want centersGo
	got.Load(m)
	want.Load(m)
	q := carve(len(p), pOff)
	copy(q, p)
	// The scratch sits between canaries: the assembly writes it unchecked.
	const canary = -12345.5
	ga := make([]float64, sOff+len(got.Scratch())+2)
	for i := range ga {
		ga[i] = canary
	}
	gs := ga[sOff : len(ga)-2]
	ws := want.Scratch()
	for first := 0; first < m.R; first++ {
		gi, gd := got.Nearest(q, first, gs)
		wi, wd := want.Nearest(p, first, ws)
		if (sOff == 1 && ga[0] != canary) || ga[len(ga)-2] != canary || ga[len(ga)-1] != canary {
			t.Fatalf("dim %d, %d centres, first %d, offsets %d/%d: Nearest wrote outside its scratch", m.C, m.R, first, pOff, sOff)
		}
		if gi != wi || !sameBits64(gd, wd) {
			t.Fatalf("dim %d, %d centres, first %d, offsets %d/%d: nearest (%d, %x), Go body (%d, %x)",
				m.C, m.R, first, pOff, sOff, gi, math.Float64bits(gd), wi, math.Float64bits(wd))
		}
		for c, d := range laneDists(&got, gs) {
			if sd := SqDist(p[:m.C], m.Row(c)); !sameBits64(d, sd) {
				t.Fatalf("dim %d, %d centres, first %d, offsets %d/%d: distance to centre %d is %x, SqDist %x",
					m.C, m.R, first, pOff, sOff, c, math.Float64bits(d), math.Float64bits(sd))
			}
		}
	}
}

var (
	nearestDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 31, 32, 33, 64, 100}
	// One to six centre pairs in one pass, then the splits 4+3, 5+5, 5+5+4.
	nearestKs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 20, 27}
)

// TestNearestMatchesGoBody sweeps dims × centre counts × alignments over
// plain values, over values laced with the specials (±0, denormals, ±Inf,
// NaN, overflowing magnitudes), and over centres with exact duplicates —
// ties below and above the starting centre, since every centre starts a scan
// — with the point random, equal to a duplicated centre (two distances of
// +0) and at a special value.
func TestNearestMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dim := range nearestDims {
		for _, k := range nearestKs {
			off := rng.Intn(4)
			plain := &floatSource{data: []byte{byte(rng.Intn(256)), byte(rng.Intn(0xa0))}}
			m := Wrap(k, dim, carve(k*dim, off))
			plain.fill(m.Data)
			p := make([]float32, dim)
			plain.fill(p)
			checkNearest(t, m, p, off, off&1)

			// Duplicates: a third of the centres become copies of others.
			for n := 0; n < 1+k/3; n++ {
				copy(m.Row(rng.Intn(k)), m.Row(rng.Intn(k)))
			}
			checkNearest(t, m, p, (off+1)&3, 1)
			checkNearest(t, m, m.Row(rng.Intn(k)), (off+2)&3, 0)

			wild := &floatSource{data: randomBytes(rng, 64+rng.Intn(256))}
			wild.fill(m.Data)
			copy(m.Row(rng.Intn(k)), m.Row(rng.Intn(k)))
			wild.fill(p)
			checkNearest(t, m, p, (off+3)&3, 1)
			checkNearest(t, m, m.Row(rng.Intn(k)), off, 0)
			for i := range p {
				p[i] = specials[(i+k)%len(specials)]
			}
			checkNearest(t, m, p, off, 1)
		}
	}
}

// TestNearestReload: one Centers loaded again and again — another shape, an
// odd count after an even one, the same shape with other values — answers
// as a fresh one does; nothing of an earlier load shows through, the pad
// lane of an odd count included.
func TestNearestReload(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var got Centers
	for _, shape := range [][2]int{{10, 32}, {10, 32}, {3, 32}, {13, 7}, {13, 7}, {12, 7}, {1, 1}, {27, 10}, {0, 5}, {5, 0}, {4, 5}} {
		m := randMatrix(rng, shape[0], shape[1])
		got.Load(m)
		var want centersGo
		want.Load(m)
		p := randMatrix(rng, 1, shape[1]).Data
		for first := 0; first < m.R; first++ {
			gi, gd := got.Nearest(p, first, got.Scratch())
			wi, wd := want.Nearest(p, first, want.Scratch())
			if gi != wi || !sameBits64(gd, wd) {
				t.Fatalf("%d×%d reloaded, first %d: nearest (%d, %v), fresh Go body (%d, %v)", m.R, m.C, first, gi, gd, wi, wd)
			}
		}
		if m.R == 0 && !panics(func() { got.Nearest(p, 0, make([]float64, 64)) }) {
			t.Fatalf("no centres after a reload: Nearest must panic")
		}
		// Load copies: the caller's matrix is its own again.
		if m.R > 0 {
			wi, wd := want.Nearest(p, 0, want.Scratch())
			Zero(m.Data)
			if gi, gd := got.Nearest(p, 0, got.Scratch()); gi != wi || !sameBits64(gd, wd) {
				t.Fatalf("%d×%d: a write to the loaded matrix reached the centres", m.R, m.C)
			}
		}
	}
}

// nearestBody is what Centers and centersGo share.
type nearestBody interface {
	Load(Matrix)
	Scratch() []float64
	Nearest(p []float32, first int, scratch []float64) (int, float64)
}

// TestNearestPanicParity: the assembly has no bounds checks, so a short
// point, a short scratch, a first that is no centre — the pad lane of an odd
// count included — and a matrix whose data does not match its shape must be
// refused before it runs; the Go body, which would tolerate some of them,
// refuses the same. A longer p is read up to dim by both.
func TestNearestPanicParity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for name, body := range map[string]nearestBody{"exported": &Centers{}, "Go body": &centersGo{}} {
		if !panics(func() { body.Nearest(nil, 0, nil) }) {
			t.Errorf("%s: Nearest with no centre loaded must panic", name)
		}
		for _, k := range []int{1, 4, 7, 13} {
			const dim = 32
			m := randMatrix(rng, k, dim)
			body.Load(m)
			p := randMatrix(rng, 1, dim+3).Data
			s := body.Scratch()
			if len(s) != (k+1)&^1 {
				t.Fatalf("%s: %d centres: Scratch is %d long", name, k, len(s))
			}
			wi, wd := body.Nearest(p[:dim], 0, s)
			if gi, gd := body.Nearest(p, 0, make([]float64, len(s)+5)); gi != wi || gd != wd {
				t.Errorf("%s: %d centres: a longer p or scratch changed the answer", name, k)
			}
			for what, fn := range map[string]func(){
				"p one short":       func() { body.Nearest(p[:dim-1], 0, s) },
				"empty p":           func() { body.Nearest(nil, 0, s) },
				"scratch one short": func() { body.Nearest(p, 0, s[:len(s)-1]) },
				"nil scratch":       func() { body.Nearest(p, 0, nil) },
				"first == k":        func() { body.Nearest(p, k, s) },
				"first == -1":       func() { body.Nearest(p, -1, s) },
				"Load, data short":  func() { body.Load(Matrix{R: k, C: dim, Data: m.Data[:k*dim-1]}) },
				"Load, data long":   func() { body.Load(Matrix{R: k, C: dim - 1, Data: m.Data}) },
			} {
				if !panics(fn) {
					t.Errorf("%s: %d centres: %s must panic", name, k, what)
				}
			}
			// A refused Load leaves the centres as they were.
			if gi, gd := body.Nearest(p, 0, s); gi != wi || gd != wd {
				t.Errorf("%s: %d centres: a refused call changed the answer", name, k)
			}
		}
	}
}

// FuzzNearest drives the differential check from fuzz bytes: values from
// data (see floatSource), dim 1..100, 1..28 centres, any alignment; dup
// copies one centre over another (an exact tie) and, when its top bit is
// set, makes the point a copy of a centre as well (a distance of +0).
func FuzzNearest(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}, uint8(31), uint8(9), uint8(0), uint8(0x93))
	f.Add([]byte{0xff, 0xbf, 0x00, 0xa0, 0x07, 0xa0}, uint8(32), uint8(26), uint8(1), uint8(0x05))
	f.Add([]byte{0x00, 0xc0, 0xff, 0xdf}, uint8(2), uint8(0), uint8(2), uint8(0))
	f.Add([]byte{}, uint8(99), uint8(12), uint8(3), uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, dim, k, off, dup uint8) {
		src := &floatSource{data: data}
		m := New(1+int(k)%28, 1+int(dim)%100)
		src.fill(m.Data)
		p := make([]float32, m.C)
		src.fill(p)
		copy(m.Row(int(dup&7)%m.R), m.Row(int(dup>>3&15)%m.R))
		if dup&0x80 != 0 {
			copy(p, m.Row(int(dup>>3&15)%m.R))
		}
		checkNearest(t, m, p, int(off)&3, int(off>>2)&1)
	})
}

// BenchmarkNearest is the clustering's inner loop at the selection's shape:
// 10 centres of width 32, random-normal points.
func BenchmarkNearest(b *testing.B) {
	for _, body := range []struct {
		name string
		c    nearestBody
	}{{"go", &centersGo{}}, {"asm", &Centers{}}} {
		b.Run(body.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pts, centres := New(1024, 32), New(10, 32)
			for _, data := range [][]float32{pts.Data, centres.Data} {
				for i := range data {
					data[i] = float32(rng.NormFloat64())
				}
			}
			body.c.Load(centres)
			scratch := body.c.Scratch()
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				best, _ := body.c.Nearest(pts.Row(i&1023), 0, scratch)
				sink += best
			}
			nearestSink = sink
		})
	}
}

var nearestSink int
