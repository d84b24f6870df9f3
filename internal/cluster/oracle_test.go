package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"subtab/internal/f32"
)

// lloydOracle is the plain Lloyd loop KMeansMatrix must reproduce bit for
// bit: the seeding refreshes every point against every new centre, and
// every iteration scans every point against every centre and takes every
// cluster's mean again. lateRepairs counts the empty clusters it met
// after the first assignment step, where KMeansMatrix's repair reads
// distances its bounds left stale.
func lloydOracle(pts f32.Matrix, k int, opt Options) (res *Result, lateRepairs int) {
	opt = opt.withDefaults()
	n := pts.R
	if n == 0 || k <= 0 {
		return &Result{K: 0}, 0
	}
	if k >= n {
		centers := f32.New(n, pts.C)
		copy(centers.Data, pts.Data)
		return singletons(centers), 0
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	centers := oracleSeed(pts, k, rng)
	assign, dist, sizes := make([]int, n), make([]float64, n), make([]int, k)
	next, counts := f32.New(k, pts.C), make([]int, k)
	var nearest f32.Centers
	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		nearest.Load(centers)
		scratch := nearest.Scratch()
		for i := 0; i < n; i++ {
			assign[i], dist[i] = nearest.Nearest(pts.Row(i), assign[i], scratch)
		}
		clear(sizes)
		for _, c := range assign {
			sizes[c]++
		}
		for _, s := range sizes {
			if s == 0 && iter > 0 {
				lateRepairs++
			}
		}
		repairEmptyClusters(centers, assign, dist, sizes, pts.Row)
		f32.Zero(next.Data)
		clear(counts)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			f32.Add(next.Row(c), pts.Row(i))
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			f32.Scale(1/float32(counts[c]), next.Row(c))
			moved += math.Sqrt(f32.SqDist(next.Row(c), centers.Row(c)))
			copy(centers.Row(c), next.Row(c))
		}
		if moved < opt.Tolerance {
			iter++
			break
		}
	}
	clear(sizes)
	for _, c := range assign {
		sizes[c]++
	}
	for i := range dist {
		dist[i] = f32.SqDist(pts.Row(i), centers.Row(assign[i]))
	}
	return &Result{K: k, Assign: assign, Dist: dist, Centers: centers.Rows(), Sizes: sizes, Iterations: iter}, lateRepairs
}

// oracleSeed is k-means++ seeding with every point's distance refreshed
// against every new centre: the D² weighting seedPlusPlus must reproduce.
func oracleSeed(pts f32.Matrix, k int, rng *rand.Rand) f32.Matrix {
	n := pts.R
	centers := f32.New(k, pts.C)
	copy(centers.Row(0), pts.Row(rng.Intn(n)))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = f32.SqDist(pts.Row(i), centers.Row(0))
	}
	for m := 1; m < k; m++ {
		total := 0.0
		for _, d := range dists {
			total += d
		}
		idx := n - 1
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			target, acc := rng.Float64()*total, 0.0
			for i, d := range dists {
				if acc += d; acc >= target {
					idx = i
					break
				}
			}
		}
		copy(centers.Row(m), pts.Row(idx))
		for i := range dists {
			if d := f32.SqDist(pts.Row(i), centers.Row(m)); d < dists[i] {
				dists[i] = d
			}
		}
	}
	return centers
}

// sameResult reports the first difference between two clusterings, bit for
// bit: K, Iterations, Assign, Sizes, Dist and every centre component.
func sameResult(got, want *Result) error {
	if got.K != want.K || got.Iterations != want.Iterations {
		return fmt.Errorf("K %d, %d iterations; oracle K %d, %d iterations", got.K, got.Iterations, want.K, want.Iterations)
	}
	if len(got.Assign) != len(want.Assign) || len(got.Sizes) != len(want.Sizes) || len(got.Centers) != len(want.Centers) {
		return fmt.Errorf("shapes differ: %d/%d/%d, oracle %d/%d/%d",
			len(got.Assign), len(got.Sizes), len(got.Centers), len(want.Assign), len(want.Sizes), len(want.Centers))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] || math.Float64bits(got.Dist[i]) != math.Float64bits(want.Dist[i]) {
			return fmt.Errorf("point %d: (%d, %x), oracle (%d, %x)", i,
				got.Assign[i], math.Float64bits(got.Dist[i]), want.Assign[i], math.Float64bits(want.Dist[i]))
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			return fmt.Errorf("cluster %d: %d members, oracle %d", c, got.Sizes[c], want.Sizes[c])
		}
		for d, v := range want.Centers[c] {
			if math.Float32bits(got.Centers[c][d]) != math.Float32bits(v) {
				return fmt.Errorf("centre %d component %d: %x, oracle %x", c, d, math.Float32bits(got.Centers[c][d]), math.Float32bits(v))
			}
		}
	}
	return nil
}

// oracleInputs are the shapes the bounds must survive: noisy modes, rows
// repeated exactly (ties at +0 and between centres), a handful of distinct
// rows (the seeding runs out of them, centres coincide and the repair runs),
// every point identical, uniform noise, and noisy modes with a NaN row.
func oracleInputs(rng *rand.Rand, n, dim int) []namedInput {
	modes := clusterTestPoints(rng.Int63(), n, dim, 1+rng.Intn(8))
	dups := clusterTestPoints(rng.Int63(), n, dim, 4)
	for i := n / 2; i < n; i++ {
		copy(dups.Row(i), dups.Row(rng.Intn(n/2+1)))
	}
	few := f32.New(n, dim)
	for i := 0; i < n; i++ {
		v := float32(rng.Intn(3))
		for d := range few.Row(i) {
			few.Row(i)[d] = v + float32(d)*0.25
		}
	}
	same := f32.New(n, dim)
	for i := range same.Data {
		same.Data[i] = 1.5
	}
	noise := f32.New(n, dim)
	for i := range noise.Data {
		noise.Data[i] = float32(rng.NormFloat64())
	}
	nan := clusterTestPoints(rng.Int63(), n, dim, 3)
	nan.Row(rng.Intn(n))[rng.Intn(dim)] = float32(math.NaN())
	return []namedInput{{"modes", modes}, {"dups", dups}, {"few", few}, {"same", same}, {"noise", noise}, {"nan", nan}}
}

type namedInput struct {
	name string
	pts  f32.Matrix
}

// TestKMeansMatchesLloydOracle sweeps dims 1 to 40, k from 1 to n-1 and
// worker counts 1 to 4 over oracleInputs: the bounded loop must return the
// plain loop's clustering bit for bit. The sweep must also meet empty
// clusters after the first iteration, or it would not test the stale
// distances the repair is handed.
func TestKMeansMatchesLloydOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	late := 0
	for dim := 1; dim <= 40; dim++ {
		n := 2 + rng.Intn(160)
		if testing.Short() {
			n = 2 + rng.Intn(60)
		}
		for _, in := range oracleInputs(rng, n, dim) {
			for _, k := range []int{1, 2, 1 + rng.Intn(n-1), 10, n - 1} {
				opt := Options{Seed: rng.Int63(), Workers: 1 + rng.Intn(4)}
				want, lateRepairs := lloydOracle(in.pts, k, opt)
				late += lateRepairs
				if err := sameResult(KMeansMatrix(in.pts, k, opt), want); err != nil {
					t.Fatalf("%s n=%d dim=%d k=%d %+v: %v", in.name, n, dim, k, opt, err)
				}
			}
		}
	}
	if late == 0 {
		t.Fatal("no input emptied a cluster after the first iteration")
	}

	// Staircases of grid points: their means fall a rounding error either
	// side of a bisector, where only the bounds' margin keeps a skip honest.
	// About one run in two hundred meets such a point, so the grid is swept
	// whole rather than sampled.
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		dims = []int{2, 8}
	}
	for _, dim := range dims {
		for n := 10; n <= 80; n += 10 {
			for off := 0; off < 64; off += 7 {
				pts := f32.New(n, dim)
				for i := range pts.Data {
					pts.Data[i] = float32((off+i)>>3) / 4
				}
				for _, k := range []int{2, 3, 5} {
					for seed := int64(0); seed < 4; seed++ {
						opt := Options{Seed: seed, Workers: 1 + int(seed)}
						want, _ := lloydOracle(pts, k, opt)
						if err := sameResult(KMeansMatrix(pts, k, opt), want); err != nil {
							t.Fatalf("staircase n=%d dim=%d offset %d k=%d %+v: %v", n, dim, off, k, opt, err)
						}
					}
				}
			}
		}
	}
}

// FuzzKMeansMatrix holds KMeansMatrix to the plain Lloyd loop on fuzzed
// matrices: 2 to 64 rows, 1 to 40 columns, values from data on a coarse grid
// (so rows and distances tie often) with 0xff a NaN, any k, seed and worker
// count.
func FuzzKMeansMatrix(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70}, uint8(40), uint8(3), uint8(5), int64(1))
	f.Add([]byte{0x00, 0x00, 0x01, 0x80}, uint8(63), uint8(1), uint8(62), int64(7))
	f.Add([]byte{0x05, 0xff, 0x90, 0x05, 0x05}, uint8(20), uint8(9), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, rows, dim, k uint8, seed int64) {
		pts := f32.New(2+int(rows)%63, 1+int(dim)%40)
		for i := range pts.Data {
			b := byte(i * 37)
			if len(data) > 0 {
				b = data[i%len(data)] + byte(i/len(data))
			}
			pts.Data[i] = float32(int8(b)>>3) / 4
			if b == 0xff {
				pts.Data[i] = float32(math.NaN())
			}
		}
		opt := Options{Seed: seed, Workers: 1 + int(seed&3)}
		want, _ := lloydOracle(pts, 1+int(k)%pts.R, opt)
		if err := sameResult(KMeansMatrix(pts, 1+int(k)%pts.R, opt), want); err != nil {
			t.Fatalf("%d×%d k=%d %+v: %v", pts.R, pts.C, 1+int(k)%pts.R, opt, err)
		}
	})
}

// TestKMeansAllocBytes holds KMeansMatrix's allocations to BytesPerPoint per
// point plus what does not grow with n — the centres, the seeding's rng,
// and each of the five per-point slices rounded up to at most a page — plus
// what each parallel pass allocates: its closure, and per worker a
// goroutine's closure and the assignment step's scratch. There is one pass
// per seeded centre, one per iteration and one for the final distances, so
// that term grows with Iterations × workers, never with n. Uniform points
// keep Lloyd iterating (to MaxIter at 20,000 points), so the term is
// exercised. The garbage collector is off, so TotalAlloc counts every byte
// allocated.
func TestKMeansAllocBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k, dim, perWorkerPass = 10, 32, 512
	for _, n := range []int{800, 20_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := f32.New(n, dim)
		for i := range pts.Data {
			pts.Data[i] = rng.Float32()
		}
		for _, workers := range []int{1, 4} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := KMeansMatrix(pts, k, Options{Seed: 3, Workers: workers})
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			passes := k + res.Iterations + 1
			limit := uint64(n*BytesPerPoint + 5*8<<10 + 4*k*dim*8 + 8<<10 + passes*(workers+1)*perWorkerPass)
			if got > limit {
				t.Errorf("n=%d, %d workers: %d iterations allocated %d bytes, over %d", n, workers, res.Iterations, got, limit)
			}
		}
	}
}
