// Internal test pinning the streaming sampler: the stratified min-hash
// reservoir over a chunked code store must equal the in-memory scan for
// any (budget, seed, candidate subset) — the order-independence claim the
// out-of-core path rests on.
package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/datagen"
)

func TestStratifiedReservoirStreamsFromStore(t *testing.T) {
	ds := datagen.Generic(1200, 6, 5, 9)
	mem, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// An independent binned twin switched onto a store with tiny blocks, so
	// every scan crosses many chunk boundaries.
	ooc, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample.codes")
	w, err := codestore.Create(path, ooc.NumCols(), 37)
	if err != nil {
		t.Fatal(err)
	}
	if err := ooc.ExportCodes(w, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := ooc.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if err := ooc.DropInlineCodes(); err != nil {
		t.Fatal(err)
	}

	cols := make([]int, mem.NumCols())
	for i := range cols {
		cols[i] = i
	}
	allRows := make([]int, mem.NumRows())
	for i := range allRows {
		allRows[i] = i
	}
	rng := rand.New(rand.NewSource(4))
	subset := func(n int) []int {
		out := append([]int(nil), allRows...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:n]
		return out
	}
	// nil is every row as the executor passes it (whole-block store scans);
	// the explicit identity list takes the block-cursor path to the same sample.
	cases := [][]int{nil, allRows, subset(700), subset(333), allRows[100:800]}
	for ci, rows := range cases {
		n := len(rows)
		if rows == nil {
			n = mem.NumRows()
		}
		for _, budget := range []int{50, 200, n, n + 10} {
			for _, seed := range []int64{1, 42, -7} {
				want := reservoir(mem, rows, cols, budget, seed)
				got := reservoir(ooc, rows, cols, budget, seed)
				if len(want) != len(got) {
					t.Fatalf("case %d budget %d seed %d: %d sampled via store, %d in memory", ci, budget, seed, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("case %d budget %d seed %d: sample[%d] = %d via store, %d in memory", ci, budget, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
