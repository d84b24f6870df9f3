package f32

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestMatrixRowsAndWrap(t *testing.T) {
	m := New(3, 4)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	if got := m.Row(1); !reflect.DeepEqual(got, []float32{4, 5, 6, 7}) {
		t.Fatalf("Row(1) = %v", got)
	}
	w := Wrap(3, 4, m.Data)
	if w.R != 3 || w.C != 4 || &w.Data[0] != &m.Data[0] {
		t.Fatal("Wrap must alias, not copy")
	}
	rows := m.Rows()
	rows[2][0] = 99
	if m.Data[8] != 99 {
		t.Fatal("Rows() must return views into the matrix")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap with mismatched length must panic")
		}
	}()
	Wrap(2, 3, m.Data)
}

func TestFromRowsPacks(t *testing.T) {
	rows := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	m := FromRows(rows)
	if m.R != 3 || m.C != 2 {
		t.Fatalf("dims %dx%d", m.R, m.C)
	}
	if !reflect.DeepEqual(m.Data, []float32{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("data %v", m.Data)
	}
	rows[0][0] = 42
	if m.Data[0] != 1 {
		t.Fatal("FromRows must copy")
	}
	if e := FromRows(nil); e.R != 0 || e.Data != nil {
		t.Fatal("empty input must yield an empty matrix")
	}
}

// dot32Reference is the documented accumulation contract of Dot32, written
// out naively: lane i feeds accumulator i mod 4, combined as
// ((s0+s1)+(s2+s3))+tail. The kernel may unroll however it likes as long as
// it computes exactly this function.
func dot32Reference(a, b []float32) float32 {
	var s [4]float32
	n4 := len(a) / 4 * 4
	for i := 0; i < n4; i++ {
		s[i%4] += a[i] * b[i]
	}
	var tail float32
	for i := n4; i < len(a); i++ {
		tail += a[i] * b[i]
	}
	return ((s[0] + s[1]) + (s[2] + s[3])) + tail
}

// TestKernelsMatchScalar pins the kernels to their definitions, including
// accumulation types and (for Dot32) the fixed lane order — the bit-identity
// contract every caller leans on.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(70)
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
		}
		var dot64, sq float64
		for i := range a {
			dot64 += float64(a[i]) * float64(b[i])
			d := float64(a[i]) - float64(b[i])
			sq += d * d
		}
		if got := Dot(a, b); got != dot64 {
			t.Fatalf("Dot = %v, scalar %v", got, dot64)
		}
		if got, want := Dot32(a, b), dot32Reference(a, b); got != want {
			t.Fatalf("n=%d: Dot32 = %v, lane-order reference %v", n, got, want)
		}
		if got := SqDist(a, b); got != sq {
			t.Fatalf("SqDist = %v, scalar %v", got, sq)
		}
		// Axpy and Add are element-independent: the unrolled kernels must
		// match the scalar loops bit for bit at every length.
		y1 := append([]float32(nil), b...)
		y2 := append([]float32(nil), b...)
		Axpy(0.75, a, y1)
		for i := range y2 {
			y2[i] += 0.75 * a[i]
		}
		if !reflect.DeepEqual(y1, y2) {
			t.Fatalf("n=%d: Axpy diverged from scalar: %v vs %v", n, y1, y2)
		}
		Add(y1, a)
		for i := range y2 {
			y2[i] += a[i]
		}
		if !reflect.DeepEqual(y1, y2) {
			t.Fatalf("n=%d: Add diverged from scalar: %v vs %v", n, y1, y2)
		}
		// SGStep must be the exact fusion of Axpy(g, tv, grad) then
		// Axpy(g, cv, tv): grad reads the pre-update tv.
		cv := a
		tv1 := append([]float32(nil), b...)
		tv2 := append([]float32(nil), b...)
		grad1 := append([]float32(nil), y1...)
		grad2 := append([]float32(nil), y1...)
		const g = float32(-0.37)
		SGStep(g, cv, tv1, grad1)
		Axpy(g, tv2, grad2)
		Axpy(g, cv, tv2)
		if !reflect.DeepEqual(tv1, tv2) || !reflect.DeepEqual(grad1, grad2) {
			t.Fatalf("n=%d: SGStep diverged from its two-Axpy definition", n)
		}
		// A completed bounded distance is the exact distance; an aborted one
		// is a prefix that already proves d >= bound.
		if got := SqDistBounded(a, b, math.Inf(1)); got != sq {
			t.Fatalf("SqDistBounded(inf) = %v, want %v", got, sq)
		}
		bound := sq / 2
		if got := SqDistBounded(a, b, bound); got < bound && got != sq {
			t.Fatalf("aborted SqDistBounded returned %v below bound %v without equalling %v", got, bound, sq)
		}
	}
}

func TestSigmoidTable(t *testing.T) {
	cases := []struct {
		x    float32
		want float64
		tol  float64
	}{
		{0, 0.5, 0.01},
		{10, 1, 1e-9},
		{-10, 0, 1e-9},
		{2, 1 / (1 + math.Exp(-2)), 0.01},
		{-2, 1 / (1 + math.Exp(2)), 0.01},
	}
	for _, c := range cases {
		if got := float64(Sigmoid32(c.x)); math.Abs(got-c.want) > c.tol {
			t.Errorf("Sigmoid32(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// TestSGPairMatchesComposition pins SGPair to its definition: the exact
// composition of Dot32, Sigmoid32 and SGStep.
func TestSGPairMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(70)
		cv := make([]float32, n)
		tv1 := make([]float32, n)
		grad1 := make([]float32, n)
		for i := range cv {
			cv[i] = rng.Float32()*2 - 1
			tv1[i] = rng.Float32()*2 - 1
			grad1[i] = rng.Float32()*2 - 1
		}
		tv2 := append([]float32(nil), tv1...)
		grad2 := append([]float32(nil), grad1...)
		label := float32(trial % 2)
		const lr = float32(0.0213)
		SGPair(label, lr, cv, tv1, grad1)
		g := (label - Sigmoid32(Dot32(cv, tv2))) * lr
		SGStep(g, cv, tv2, grad2)
		if !reflect.DeepEqual(tv1, tv2) || !reflect.DeepEqual(grad1, grad2) {
			t.Fatalf("n=%d: SGPair diverged from its composed definition", n)
		}
	}
}

// TestSGSlotMatchesComposition pins SGSlot to its definition: Zero(grad),
// then SGPair per target (tvs[0] positive, rest negative), then Add(cv, grad).
func TestSGSlotMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		targets := 1 + rng.Intn(10) // >8 exercises the sequential path too
		cv1 := make([]float32, n)
		grad1 := make([]float32, n)
		tvs1 := make([][]float32, targets)
		tvs2 := make([][]float32, targets)
		for i := range cv1 {
			cv1[i] = rng.Float32()*2 - 1
			grad1[i] = rng.Float32()*2 - 1 // stale garbage: SGSlot must zero it
		}
		for ti := range tvs1 {
			if ti > 0 && rng.Intn(4) == 0 {
				// Alias an earlier target row: a duplicate negative draw must
				// see the earlier target's update, which forces SGSlot off its
				// batched path.
				src := rng.Intn(ti)
				tvs1[ti] = tvs1[src]
				tvs2[ti] = tvs2[src]
				continue
			}
			tvs1[ti] = make([]float32, n)
			for i := range tvs1[ti] {
				tvs1[ti][i] = rng.Float32()*2 - 1
			}
			tvs2[ti] = append([]float32(nil), tvs1[ti]...)
		}
		cv2 := append([]float32(nil), cv1...)
		grad2 := make([]float32, n)
		const lr = float32(0.025)
		SGSlot(lr, cv1, grad1, tvs1)
		Zero(grad2)
		for ti := range tvs2 {
			label := float32(0)
			if ti == 0 {
				label = 1
			}
			SGPair(label, lr, cv2, tvs2[ti], grad2)
		}
		Add(cv2, grad2)
		if !reflect.DeepEqual(cv1, cv2) {
			t.Fatalf("n=%d targets=%d: SGSlot center diverged from composition", n, targets)
		}
		for ti := range tvs1 {
			if !reflect.DeepEqual(tvs1[ti], tvs2[ti]) {
				t.Fatalf("n=%d targets=%d: SGSlot target %d diverged from composition", n, targets, ti)
			}
		}
	}
}

func TestAxpyAddScaleZero(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	if !reflect.DeepEqual(y, []float32{12, 24, 36}) {
		t.Fatalf("Axpy: %v", y)
	}
	Add(y, x)
	if !reflect.DeepEqual(y, []float32{13, 26, 39}) {
		t.Fatalf("Add: %v", y)
	}
	Scale(0.5, y)
	if !reflect.DeepEqual(y, []float32{6.5, 13, 19.5}) {
		t.Fatalf("Scale: %v", y)
	}
	Zero(y)
	if !reflect.DeepEqual(y, []float32{0, 0, 0}) {
		t.Fatalf("Zero: %v", y)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float32{1, 0}, []float32{0, 1}); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := Cosine([]float32{2, 0}, []float32{5, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel cosine = %v", got)
	}
	if got := Cosine([]float32{0, 0}, []float32{1, 1}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
}

func TestMeanPoolInto(t *testing.T) {
	src := FromRows([][]float32{{1, 2}, {3, 4}, {5, 10}})
	dst := []float32{99, 99}
	n := MeanPoolInto(dst, src, []int32{0, -1, 2})
	if n != 2 {
		t.Fatalf("pooled %d rows", n)
	}
	if !reflect.DeepEqual(dst, []float32{3, 6}) {
		t.Fatalf("mean = %v", dst)
	}
	if n := MeanPoolInto(dst, src, []int32{-1, -1}); n != 0 || dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("all-unseen pool: n=%d dst=%v", n, dst)
	}
}

func TestParallelRangeCoversDisjointly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		n := 101
		hits := make([]int, n)
		ParallelRange(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	ParallelRange(0, 4, func(int, int) { t.Fatal("n=0 must not call fn") })
}

func TestParallelIndexCoversDisjointly(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 32} {
		n := 77
		hits := make([]int32, n)
		ParallelIndex(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d", w)
	}
	if w := Workers(1 << 20); w < 1 {
		t.Fatalf("Workers(big) = %d", w)
	}
}

func randMatrix(rng *rand.Rand, r, c int) Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// TestMeanPoolRowsMatchesPerRow pins the batched kernel against per-row
// MeanPoolInto bit for bit, negatives included.
func TestMeanPoolRowsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randMatrix(rng, 40, 7)
	const rows, k = 33, 5
	idx := make([]int32, rows*k)
	for i := range idx {
		idx[i] = int32(rng.Intn(42) - 2) // includes the -1/-2 unseen sentinels
	}
	batch := New(rows, 7)
	MeanPoolRows(batch, src, idx, k)
	want := make([]float32, 7)
	for i := 0; i < rows; i++ {
		MeanPoolInto(want, src, idx[i*k:(i+1)*k])
		for d := range want {
			if batch.Row(i)[d] != want[d] {
				t.Fatalf("row %d dim %d: batched %v, per-row %v", i, d, batch.Row(i)[d], want[d])
			}
		}
	}
}

// TestParallelPanicReachesCaller pins that a worker's panic surfaces on the
// calling goroutine — where a caller (an HTTP handler's recovery, say) can
// catch it — after every other worker has finished, and that of several
// panics the one of the lowest work index is raised. Before, a panic in a
// worker ended the process.
func TestParallelPanicReachesCaller(t *testing.T) {
	caught := func(run func()) (v any) {
		defer func() { v = recover() }()
		run()
		return nil
	}
	var ranges atomic.Int32
	v := caught(func() {
		ParallelRange(100, 4, func(start, end int) {
			if start >= 50 {
				panic(start)
			}
			ranges.Add(1)
		})
	})
	if v != 50 || ranges.Load() != 2 {
		t.Fatalf("ParallelRange raised %v after %d clean chunks, want 50 after 2", v, ranges.Load())
	}
	var done [100]atomic.Bool
	v = caught(func() {
		ParallelIndex(100, 4, func(i int) {
			if i == 30 || i == 70 {
				panic(i)
			}
			done[i].Store(true)
		})
	})
	if v != 30 {
		t.Fatalf("ParallelIndex raised %v, want 30", v)
	}
	for i := range done {
		if done[i].Load() == (i == 30 || i == 70) {
			t.Fatalf("index %d ran: %v", i, done[i].Load())
		}
	}
}
