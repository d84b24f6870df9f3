package core

import (
	"fmt"
	"testing"

	"subtab/internal/cluster"
	"subtab/internal/datagen"
)

// BenchmarkExactKMeans times the exact path's clustering of a select:
// cluster.KMeansMatrix with default options and k = 10 over every tuple
// vector of an FL, CY, BL and SP model at 800 and 20,000 rows. The vectors
// are built once per model, outside the timer.
//
//	go test -run '^$' -bench ExactKMeans ./internal/core/
func BenchmarkExactKMeans(b *testing.B) {
	for _, name := range []string{"FL", "CY", "BL", "SP"} {
		for _, rows := range []int{800, 20_000} {
			b.Run(fmt.Sprintf("%s/%d", name, rows), func(b *testing.B) {
				ds, err := datagen.ByName(name, rows, 1)
				if err != nil {
					b.Fatal(err)
				}
				opt := Default()
				opt.Bins.Seed, opt.Corpus.Seed, opt.Embedding.Seed, opt.ClusterSeed = 1, 1, 1, 1
				m, err := Preprocess(ds.T, opt)
				if err != nil {
					b.Fatal(err)
				}
				vecs := m.fullRowVectors()
				b.ReportAllocs()
				for b.Loop() {
					cluster.KMeansMatrix(vecs, 10, cluster.Options{Seed: opt.ClusterSeed})
				}
			})
		}
	}
}
