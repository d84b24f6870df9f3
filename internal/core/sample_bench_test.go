package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/datagen"
)

// BenchmarkStratifiedReservoir times the scaled path's sampler on a
// 40k-row, 31-column FL table with default binning, per code layout
// (inline codes and one code store at the default block size), row set
// (the whole table and sorted random 24k- and 30k-row subsets, as query
// results or scopes arrive) and budget (50 to the default 20,000).
//
//	go test -run '^$' -bench StratifiedReservoir ./internal/core/
func BenchmarkStratifiedReservoir(b *testing.B) {
	const rows = 40_000
	ds, err := datagen.ByName("FL", rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := Default().Bins
	opt.Seed = 1
	inline, err := binning.Bin(ds.T, opt)
	if err != nil {
		b.Fatal(err)
	}
	stored, err := binning.Bin(ds.T, opt)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "codes")
	w, err := codestore.Create(path, stored.NumBins(), rows, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := stored.ExportCodes(w, 0); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	cs, err := codestore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cs.Close() })
	if err := stored.AttachStore(cs); err != nil {
		b.Fatal(err)
	}

	cols := allCols(inline)
	rng := rand.New(rand.NewSource(1))
	subset := func(n int) rowSet {
		ids := rng.Perm(rows)[:n]
		slices.Sort(ids)
		return listRows(ids)
	}
	sets := []struct {
		name string
		rows rowSet
	}{{"all40k", allRows(rows)}, {"sub24k", subset(24_000)}, {"sub30k", subset(30_000)}}
	for _, layout := range []struct {
		name string
		b    *binning.Binned
	}{{"inline", inline}, {"codestore", stored}} {
		for _, s := range sets {
			for _, budget := range []int{50, 2_000, 20_000} {
				b.Run(fmt.Sprintf("%s/%s/budget%d", layout.name, s.name, budget), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						stratifiedReservoir(layout.b, s.rows, cols, budget, 7, nil)
					}
				})
			}
		}
	}
}
