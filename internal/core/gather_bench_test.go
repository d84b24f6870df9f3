package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"subtab/internal/datagen"
	"subtab/internal/f32"
)

// BenchmarkGatherTupleVectors times the tuple-vector gather of one select
// on a 40k-row, 31-column FL model with default options, per code layout:
// inline codes, one code store, and four code-store shards (default block
// size, so shard cuts fall inside a block). Row sets are a sorted 20k-row
// sample drawn over the whole table and a 17k-row scope (one contiguous
// run of rows, as a drill-down's sorted row list).
//
//	go test -run '^$' -bench GatherTupleVectors ./internal/core/
func BenchmarkGatherTupleVectors(b *testing.B) {
	const rows = 40_000
	ds, err := datagen.ByName("FL", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := Default()
	opt.Bins.Seed, opt.Corpus.Seed, opt.Embedding.Seed, opt.ClusterSeed = 1, 1, 1, 1
	m, err := Preprocess(ds.T, opt)
	if err != nil {
		b.Fatal(err)
	}
	cols := make([]int, m.T.NumCols())
	for c := range cols {
		cols[c] = c
	}
	rng := rand.New(rand.NewSource(1))
	var sample, scope []int
	for r := 0; r < rows; r++ {
		if rng.Intn(2) == 0 {
			sample = append(sample, r)
		}
		if r >= 10_000 && r < 27_000 {
			scope = append(scope, r)
		}
	}
	sample = sample[:min(len(sample), 20_000)]
	sets := []struct {
		name string
		rows rowSet
	}{{fmt.Sprintf("sample%dk", len(sample)/1000), listRows(sample)}, {"scope17k", listRows(scope)}}

	run := func(layout string) {
		for _, s := range sets {
			b.Run(layout+"/"+s.name, func(b *testing.B) {
				dst := f32.New(s.rows.n, m.Emb.Dim())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.gatherTupleVectors(dst, s.rows, cols, nil)
				}
			})
		}
	}
	// The code store takes the inline model's codes; the shards page out
	// a second build of the same table, generated again because PageOut
	// dropped the first one's cells.
	run("inline")
	dir := b.TempDir()
	if err := m.PageOut([]string{filepath.Join(dir, "codes")}, []string{filepath.Join(dir, "cols")}, false, 0); err != nil {
		b.Fatal(err)
	}
	run("codestore")
	codes, cells := shardPaths(dir, 4)
	if ds, err = datagen.ByName("FL", rows, 1); err != nil {
		b.Fatal(err)
	}
	if m, err = Preprocess(ds.T, opt); err != nil {
		b.Fatal(err)
	}
	if err := m.PageOut(codes, cells, true, 0); err != nil {
		b.Fatal(err)
	}
	run("shard")
}
