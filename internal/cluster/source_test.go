package cluster

import (
	"math"
	"math/rand"
	"testing"

	"subtab/internal/f32"
)

// spilledCopy writes pts into a file-backed slab so the source path (chunk
// reads, batch gathers) actually executes.
func spilledCopy(t *testing.T, pts f32.Matrix) *f32.Slab {
	t.Helper()
	slab, err := f32.NewSpillSlab(pts.R, pts.C, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slab.Close() })
	for start := 0; start < pts.R; start += 100 {
		n := min(100, pts.R-start)
		if err := slab.WriteChunk(start, f32.Wrap(n, pts.C, pts.Data[start*pts.C:(start+n)*pts.C])); err != nil {
			t.Fatal(err)
		}
	}
	return slab
}

func clusterTestPoints(seed int64, n, dim, modes int) f32.Matrix {
	rng := rand.New(rand.NewSource(seed))
	pts := f32.New(n, dim)
	for i := 0; i < n; i++ {
		m := rng.Intn(modes)
		for d := 0; d < dim; d++ {
			pts.Row(i)[d] = float32(m) + float32(rng.NormFloat64())*0.1
		}
	}
	return pts
}

// TestMiniBatchSourceMatchesMatrix pins the out-of-core clustering
// guarantee: mini-batch k-means over a spilled slab must be bit-identical
// — assignments, distances, centers, sizes, iteration count — to the matrix path over
// the same points, across sizes that cross the seeding-subsample and
// batch-size boundaries.
func TestMiniBatchSourceMatchesMatrix(t *testing.T) {
	for _, tc := range []struct{ n, k, batch int }{
		{30, 4, 16},   // n < batch
		{200, 6, 32},  // n < 4*batch (seeding over the whole input)
		{900, 8, 64},  // n > 4*batch (strided seeding subsample)
		{900, 1, 64},  // single cluster
		{10, 10, 16},  // k == n (identity clustering)
		{10, 30, 16},  // k > n
		{500, 12, 50}, // uneven chunking vs the 100-row write chunks
	} {
		pts := clusterTestPoints(int64(tc.n)*31+int64(tc.k), tc.n, 7, max(tc.k, 1))
		opt := MiniBatchOptions{BatchSize: tc.batch, MaxIter: 40, Seed: 99}
		want := MiniBatchKMeans(pts, tc.k, opt)
		got := MiniBatchKMeansSource(spilledCopy(t, pts), tc.k, opt)
		if got.K != want.K || got.Iterations != want.Iterations {
			t.Fatalf("n=%d k=%d: K/iters (%d,%d) vs (%d,%d)", tc.n, tc.k, got.K, got.Iterations, want.K, want.Iterations)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("n=%d k=%d: assign[%d] = %d, want %d", tc.n, tc.k, i, got.Assign[i], want.Assign[i])
			}
			if math.Float64bits(got.Dist[i]) != math.Float64bits(want.Dist[i]) {
				t.Fatalf("n=%d k=%d: dist[%d] = %v, want %v", tc.n, tc.k, i, got.Dist[i], want.Dist[i])
			}
		}
		for c := range want.Centers {
			if want.Sizes[c] != got.Sizes[c] {
				t.Fatalf("n=%d k=%d: sizes[%d] = %d, want %d", tc.n, tc.k, c, got.Sizes[c], want.Sizes[c])
			}
			for d := range want.Centers[c] {
				if got.Centers[c][d] != want.Centers[c][d] {
					t.Fatalf("n=%d k=%d: center %d dim %d = %v, want %v (not bit-identical)",
						tc.n, tc.k, c, d, got.Centers[c][d], want.Centers[c][d])
				}
			}
		}
	}
}

// TestMiniBatchSourceEmptyRepair forces empty clusters (many duplicate
// points, k close to the distinct count) so the repair runs, and pins it —
// the moved points' distances, retaken from one gathered row, included —
// against the matrix repair.
func TestMiniBatchSourceEmptyRepair(t *testing.T) {
	const n, dim, k = 300, 5, 12
	rng := rand.New(rand.NewSource(5))
	pts := f32.New(n, dim)
	for i := 0; i < n; i++ {
		v := float32(rng.Intn(3)) // only 3 distinct points, k = 12
		for d := 0; d < dim; d++ {
			pts.Row(i)[d] = v
		}
	}
	opt := MiniBatchOptions{BatchSize: 32, MaxIter: 20, Seed: 11}
	want := MiniBatchKMeans(pts, k, opt)
	got := MiniBatchKMeansSource(spilledCopy(t, pts), k, opt)
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("assign[%d] = %d, want %d", i, got.Assign[i], want.Assign[i])
		}
		if math.Float64bits(got.Dist[i]) != math.Float64bits(want.Dist[i]) {
			t.Fatalf("dist[%d] = %v, want %v", i, got.Dist[i], want.Dist[i])
		}
	}
}

// TestMiniBatchSourceResidentFastPath pins that a resident slab delegates
// to the matrix implementation (same results, no spill machinery).
func TestMiniBatchSourceResidentFastPath(t *testing.T) {
	pts := clusterTestPoints(77, 400, 6, 5)
	opt := MiniBatchOptions{BatchSize: 64, MaxIter: 30, Seed: 7}
	want := MiniBatchKMeans(pts, 5, opt)
	got := MiniBatchKMeansSource(f32.WrapSlab(pts), 5, opt)
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("resident slab diverged at assign[%d]", i)
		}
	}
}
