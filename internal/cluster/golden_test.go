package cluster_test

// An external test package: the FL input is built by core.Preprocess, and
// core imports cluster.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"subtab/internal/cluster"
	"subtab/internal/core"
	"subtab/internal/datagen"
	"subtab/internal/f32"
	"subtab/internal/word2vec"
)

var updateClusterGolden = flag.Bool("update", false, "re-record testdata/cluster_golden.txt")

// resultHash is a SHA-256 over everything a clustering returns: Assign,
// Sizes, Iterations and the bits of every centre.
func resultHash(r *cluster.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.K))
	put(uint64(r.Iterations))
	for _, a := range r.Assign {
		put(uint64(a))
	}
	for _, s := range r.Sizes {
		put(uint64(s))
	}
	for _, c := range r.Centers {
		for _, v := range c {
			put(uint64(math.Float32bits(v)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// plantedPoints is six noisy blobs whose last third repeats eight of the
// first rows exactly, so a point can sit at distance +0 from a centre and two
// members of a batch can pull a centre by identical amounts.
func plantedPoints(n, dim int, seed int64) f32.Matrix {
	rng := rand.New(rand.NewSource(seed))
	pts := f32.New(n, dim)
	fresh := n - n/3
	for i := 0; i < fresh; i++ {
		m := rng.Intn(6)
		for d := range pts.Row(i) {
			pts.Row(i)[d] = float32((m+d)%6) + float32(rng.NormFloat64())*0.15
		}
	}
	for i := fresh; i < n; i++ {
		copy(pts.Row(i), pts.Row(rng.Intn(8)))
	}
	return pts
}

// tiedPoints has three distinct rows, so for k > 3 the seeding runs out of
// distinct points, centres coincide bit for bit, every scan meets exact ties
// and the empty-cluster repair runs.
func tiedPoints(n, dim int, seed int64) f32.Matrix {
	rng := rand.New(rand.NewSource(seed))
	pts := f32.New(n, dim)
	for i := 0; i < n; i++ {
		v := float32(rng.Intn(3))
		for d := range pts.Row(i) {
			pts.Row(i)[d] = v + float32(d)*0.25
		}
	}
	return pts
}

// flightsVectors is the pipeline's own input: the tuple-vectors, over every
// column, of a binned FL sample as core.Preprocess embeds it.
func flightsVectors(t *testing.T, n, dim int) f32.Matrix {
	t.Helper()
	opt := core.Default()
	opt.Bins.Seed = 41
	opt.Corpus.Seed = 41
	opt.Embedding = word2vec.Options{Dim: dim, Epochs: 2, Seed: 41, Workers: 1}
	m, err := core.Preprocess(datagen.Flights(n, 41).T, opt)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]int, m.T.NumCols())
	for c := range cols {
		cols[c] = c
	}
	pts := f32.New(n, dim)
	for r := 0; r < n; r++ {
		copy(pts.Row(r), m.RowVector(r, cols))
	}
	return pts
}

func spill(t *testing.T, pts f32.Matrix) *f32.Slab {
	t.Helper()
	slab, err := f32.NewSpillSlab(pts.R, pts.C, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slab.Close() })
	if err := slab.WriteChunk(0, pts); err != nil {
		t.Fatal(err)
	}
	return slab
}

// TestClusterGolden pins the clustering bits at the clustering layer. The
// selection goldens see a clustering only through the ten rows a display
// chooses; this sees every assignment, every size, the iteration count and
// every bit of every centre, for the three entry points the pipeline calls,
// so a nearest-centre kernel that differs from the recorded arithmetic in
// one comparison fails here even when no selection moves. Dim 10 is a width
// no 4-lane body takes, 13 and 27 centres leave an odd centre over after
// pairing. The recorded hashes are those of the unfused amd64 build (see
// package f32); `-update`, given after the package path, re-records.
func TestClusterGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes are recorded on amd64; other targets fuse a*b+c in the centre updates")
	}
	var got strings.Builder
	for _, dim := range []int{32, 10} {
		inputs := []struct {
			name string
			pts  f32.Matrix
		}{
			{"planted", plantedPoints(1500, dim, 13)},
			{"tied", tiedPoints(400, dim, 5)},
			{"flights", flightsVectors(t, 2400, dim)},
		}
		for _, in := range inputs {
			slab := spill(t, in.pts)
			for _, k := range []int{1, 2, 3, 10, 13, 27} {
				for _, workers := range []int{1, 4} {
					// A batch of 256 puts every input but the tied one past
					// 4×batch rows, where seeding takes the strided subsample.
					mb := cluster.MiniBatchOptions{BatchSize: 256, Seed: 41, Workers: workers}
					fmt.Fprintf(&got, "%s dim=%d k=%d workers=%d exact=%s minibatch=%s source=%s\n", in.name, dim, k, workers,
						resultHash(cluster.KMeansMatrix(in.pts, k, cluster.Options{Seed: 41, Workers: workers})),
						resultHash(cluster.MiniBatchKMeans(in.pts, k, mb)),
						resultHash(cluster.MiniBatchKMeansSource(slab, k, mb)))
				}
			}
		}
	}
	path := filepath.Join("testdata", "cluster_golden.txt")
	if *updateClusterGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/cluster/ -run TestClusterGolden -update`): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("clustering bits diverged from %s.\n got:\n%swant:\n%s", path, got.String(), want)
	}
}
