package cluster

import (
	"math"
	"math/rand"
	"testing"

	"subtab/internal/f32"
)

// blobs generates k well-separated Gaussian blobs.
func blobs(nPer, k, dim int, seed int64) ([][]float32, []int) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float32
	var labels []int
	for c := 0; c < k; c++ {
		for i := 0; i < nPer; i++ {
			p := make([]float32, dim)
			for d := 0; d < dim; d++ {
				p[d] = float32(10*float64(c) + rng.NormFloat64()*0.5)
			}
			pts = append(pts, p)
			labels = append(labels, c)
		}
	}
	return pts, labels
}

func TestKMeansEmpty(t *testing.T) {
	res := KMeans(nil, 3, Options{Seed: 1})
	if res.K != 0 {
		t.Fatalf("K = %d", res.K)
	}
	if res.Representatives(nil) != nil {
		t.Fatal("representatives of empty should be nil")
	}
}

func TestKMeansKZero(t *testing.T) {
	pts, _ := blobs(5, 2, 2, 1)
	res := KMeans(pts, 0, Options{Seed: 1})
	if res.K != 0 {
		t.Fatalf("K = %d", res.K)
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	pts, _ := blobs(2, 2, 2, 2) // 4 points
	res := KMeans(pts, 10, Options{Seed: 1})
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	for i, c := range res.Assign {
		if c != i {
			t.Fatalf("assign = %v", res.Assign)
		}
	}
	reps := res.Representatives(pts)
	if len(reps) != 4 {
		t.Fatalf("reps = %v", reps)
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts, labels := blobs(50, 3, 4, 3)
	res := KMeans(pts, 3, Options{Seed: 7})
	// Every true blob must map to exactly one cluster.
	blobToCluster := map[int]int{}
	for i, lbl := range labels {
		c := res.Assign[i]
		if prev, ok := blobToCluster[lbl]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", lbl, prev, c)
			}
		} else {
			blobToCluster[lbl] = c
		}
	}
	if len(blobToCluster) != 3 {
		t.Fatalf("blob-cluster map = %v", blobToCluster)
	}
}

func TestAssignmentsAreNearest(t *testing.T) {
	pts, _ := blobs(30, 3, 3, 5)
	res := KMeans(pts, 3, Options{Seed: 5})
	for i, p := range pts {
		assigned := f32.SqDist(p, res.Centers[res.Assign[i]])
		for c := range res.Centers {
			if d := f32.SqDist(p, res.Centers[c]); d < assigned-1e-9 {
				t.Fatalf("point %d assigned to %d (d=%v) but %d is closer (d=%v)", i, res.Assign[i], assigned, c, d)
			}
		}
	}
}

func TestSizesConsistent(t *testing.T) {
	pts, _ := blobs(40, 2, 2, 6)
	res := KMeans(pts, 2, Options{Seed: 6})
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Fatalf("sizes sum %d != n %d", total, len(pts))
	}
	counts := make([]int, res.K)
	for _, c := range res.Assign {
		counts[c]++
	}
	for c := range counts {
		if counts[c] != res.Sizes[c] {
			t.Fatalf("sizes = %v, recount = %v", res.Sizes, counts)
		}
	}
}

func TestRepresentativesAreClusterMembers(t *testing.T) {
	pts, _ := blobs(25, 4, 3, 8)
	res := KMeans(pts, 4, Options{Seed: 8})
	reps := res.Representatives(pts)
	if len(reps) != 4 {
		t.Fatalf("reps = %v", reps)
	}
	seen := map[int]bool{}
	for _, r := range reps {
		if r < 0 || r >= len(pts) {
			t.Fatalf("rep %d out of range", r)
		}
		if seen[r] {
			t.Fatalf("duplicate representative %d", r)
		}
		seen[r] = true
	}
	// Ordered by descending cluster size.
	for i := 1; i < len(reps); i++ {
		si := res.Sizes[res.Assign[reps[i-1]]]
		sj := res.Sizes[res.Assign[reps[i]]]
		if si < sj {
			t.Fatalf("representatives not size-ordered: %d < %d", si, sj)
		}
	}
}

func TestRepresentativeIsNearestToCenter(t *testing.T) {
	pts, _ := blobs(30, 2, 2, 9)
	res := KMeans(pts, 2, Options{Seed: 9})
	reps := res.Representatives(pts)
	for _, rep := range reps {
		c := res.Assign[rep]
		repD := f32.SqDist(pts[rep], res.Centers[c])
		for i, p := range pts {
			if res.Assign[i] == c && f32.SqDist(p, res.Centers[c]) < repD-1e-9 {
				t.Fatalf("rep %d not nearest to center %d (point %d closer)", rep, c, i)
			}
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	pts, _ := blobs(40, 3, 3, 10)
	a := KMeans(pts, 3, Options{Seed: 42})
	b := KMeans(pts, 3, Options{Seed: 42})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give same clustering")
		}
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := make([][]float32, 10)
	for i := range pts {
		pts[i] = []float32{1, 1}
	}
	res := KMeans(pts, 3, Options{Seed: 11})
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	if res.Inertia(pts) != 0 {
		t.Fatalf("inertia = %v", res.Inertia(pts))
	}
	reps := res.Representatives(pts)
	if len(reps) == 0 {
		t.Fatal("expected representatives")
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	pts, _ := blobs(30, 4, 3, 12)
	i1 := KMeans(pts, 1, Options{Seed: 12}).Inertia(pts)
	i4 := KMeans(pts, 4, Options{Seed: 12}).Inertia(pts)
	if i4 >= i1 {
		t.Fatalf("inertia k=4 (%v) should be < k=1 (%v)", i4, i1)
	}
	if i4 < 0 || math.IsNaN(i4) {
		t.Fatalf("inertia = %v", i4)
	}
}

func TestEmptyClusterRepair(t *testing.T) {
	// Two far blobs, k=3: one cluster would go empty without repair.
	pts, _ := blobs(20, 2, 2, 13)
	res := KMeans(pts, 3, Options{Seed: 13})
	for c, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty: sizes %v", c, res.Sizes)
		}
	}
}

func TestConvergesWithinMaxIter(t *testing.T) {
	pts, _ := blobs(100, 3, 8, 14)
	res := KMeans(pts, 3, Options{Seed: 14, MaxIter: 100})
	if res.Iterations >= 100 {
		t.Fatalf("did not converge: %d iterations", res.Iterations)
	}
}
