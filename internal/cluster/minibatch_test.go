package cluster

import (
	"testing"

	"subtab/internal/f32"
)

// matBlobs packs the blobs helper's output into a flat matrix (nPer points
// per cluster).
func matBlobs(nPer, k, dim int, seed int64) (f32.Matrix, []int) {
	pts, labels := blobs(nPer, k, dim, seed)
	return f32.FromRows(pts), labels
}

func TestMiniBatchKMeansRecoversBlobs(t *testing.T) {
	pts, truth := matBlobs(1250, 4, 8, 1)
	res := MiniBatchKMeans(pts, 4, MiniBatchOptions{Seed: 3})
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	// Every true blob must map to exactly one cluster and vice versa.
	blobToCluster := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := blobToCluster[truth[i]]; ok && prev != c {
			t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, c)
		} else if !ok {
			blobToCluster[truth[i]] = c
		}
	}
	if len(blobToCluster) != 4 {
		t.Fatalf("blobs collapsed: %v", blobToCluster)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != pts.R {
		t.Fatalf("sizes sum to %d, want %d", total, pts.R)
	}
}

// TestMiniBatchKMeansDeterministic pins the determinism contract: one fixed
// result per (pts, k, options), at any worker count.
func TestMiniBatchKMeansDeterministic(t *testing.T) {
	pts, _ := matBlobs(600, 5, 6, 2)
	ref := MiniBatchKMeans(pts, 5, MiniBatchOptions{Seed: 7})
	for _, workers := range []int{1, 2, 3, 8} {
		got := MiniBatchKMeans(pts, 5, MiniBatchOptions{Seed: 7, Workers: workers})
		if got.Iterations != ref.Iterations {
			t.Fatalf("workers=%d: iterations %d vs %d", workers, got.Iterations, ref.Iterations)
		}
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("workers=%d: assignment differs at point %d", workers, i)
			}
		}
		for c := range ref.Centers {
			for d := range ref.Centers[c] {
				if got.Centers[c][d] != ref.Centers[c][d] {
					t.Fatalf("workers=%d: center %d component %d differs bitwise", workers, c, d)
				}
			}
		}
	}
	// A different seed must explore a different trajectory.
	other := MiniBatchKMeans(pts, 5, MiniBatchOptions{Seed: 8})
	same := true
	for c := range ref.Centers {
		for d := range ref.Centers[c] {
			if other.Centers[c][d] != ref.Centers[c][d] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seed 7 and seed 8 produced identical centers; the seed is not reaching the batch draws")
	}
}

func TestMiniBatchKMeansDegenerate(t *testing.T) {
	if res := MiniBatchKMeans(f32.Matrix{}, 3, MiniBatchOptions{}); res.K != 0 {
		t.Fatalf("empty input: K = %d, want 0", res.K)
	}
	pts, _ := matBlobs(2, 2, 3, 3)
	res := MiniBatchKMeans(pts, 10, MiniBatchOptions{Seed: 1})
	if res.K != 4 {
		t.Fatalf("k >= n: K = %d, want 4 singletons", res.K)
	}
	for i, c := range res.Assign {
		if c != i || res.Sizes[i] != 1 {
			t.Fatalf("k >= n: point %d in cluster %d (size %d), want its own", i, c, res.Sizes[i])
		}
	}
}

// TestMiniBatchKMeansNoEmptyClusters checks the shared empty-cluster repair
// runs after the final assignment pass: with duplicate-heavy input, every
// cluster still ends non-empty.
func TestMiniBatchKMeansNoEmptyClusters(t *testing.T) {
	pts := f32.New(40, 4)
	for i := 0; i < 40; i++ {
		row := pts.Row(i)
		for d := range row {
			row[d] = float32(i % 2) // only two distinct points
		}
	}
	res := MiniBatchKMeans(pts, 4, MiniBatchOptions{Seed: 5})
	for c, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d left empty (sizes %v)", c, res.Sizes)
		}
	}
}
