package blockfile_test

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
)

// FuzzPackedCodes is differential over the code store's cell widths: spec
// draws up to eight columns of 1 to 300 bins (so 1-, 2-, 4-, 8- and 16-bit
// codes), shape a block size and a row count whose last block is not a
// multiple of 8 rows (so the last page of a sub-byte column ends mid-byte),
// and seed the codes. The codes are written twice — by Create from the bin
// counts and by WriteFile from the codes — and read back through
// ColumnBlock, GatherCodes (unsorted rows, with repeats), Code and Load, on
// the mapped path, the ReadAt path and in memory, and compared with the
// input. It runs as a regression test over its seeds on every plain `go
// test`.
func FuzzPackedCodes(f *testing.F) {
	for i, bins := range [][]int{{1}, {2}, {3, 4}, {5, 16, 17}, {2, 256, 257, 300}, {4, 2, 16, 1, 3, 255, 9, 2}} {
		var spec []byte
		for _, b := range bins {
			spec = binary.LittleEndian.AppendUint16(spec, uint16(b-1))
		}
		f.Add(spec, uint16(i*37+11), int64(i))
	}
	f.Fuzz(func(t *testing.T, spec []byte, shape uint16, seed int64) {
		var bins []int
		for i := 0; i+1 < len(spec) && len(bins) < 8; i += 2 {
			bins = append(bins, 1+int(binary.LittleEndian.Uint16(spec[i:]))%300)
		}
		if len(bins) == 0 {
			bins = []int{1}
		}
		blockRows := 8 + int(shape%57)
		tail := 1 + int(shape/57)%(blockRows-1)
		if tail%8 == 0 {
			tail--
		}
		rows := int(shape/57/64%4)*blockRows + tail
		rng := rand.New(rand.NewSource(seed))
		codes := make([][]uint16, len(bins))
		for c, nb := range bins {
			codes[c] = make([]uint16, rows)
			for r := range codes[c] {
				codes[c][r] = uint16(rng.Intn(nb))
			}
		}
		gather := make([]int, rows+rows/2)
		for i := range gather {
			gather[i] = rng.Intn(rows)
		}

		dir := t.TempDir()
		created, written := filepath.Join(dir, "created.codes"), filepath.Join(dir, "written.codes")
		w, err := codestore.Create(created, bins, rows, blockRows)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendColumns(codes); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := codestore.WriteFile(written, codes, blockRows); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(created)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, s *codestore.Store, fromBins bool) {
			t.Helper()
			defer s.Close()
			if err := s.Verify(); err != nil {
				t.Fatalf("%s: Verify: %v", how, err)
			}
			for c, nb := range bins {
				top := nb
				if !fromBins {
					top = int(slices.Max(codes[c])) + 1
				}
				if got, want := s.CellBits(c), wantCodeBits(top); got != want {
					t.Fatalf("%s: column %d of %d bins stored at %d bits, want %d", how, c, nb, got, want)
				}
				var scratch []uint16
				for blk := 0; blk < s.NumBlocks(); blk++ {
					scratch = s.ColumnBlock(c, blk, scratch)
					for i, got := range scratch {
						if want := codes[c][blk*blockRows+i]; got != want {
							t.Fatalf("%s: ColumnBlock(%d, %d)[%d] = %d, want %d", how, c, blk, i, got, want)
						}
					}
				}
				for r, want := range codes[c] {
					if got := s.Code(c, r); got != want {
						t.Fatalf("%s: Code(%d, %d) = %d, want %d", how, c, r, got, want)
					}
					if got, err := s.Load(c, r); err != nil || got != uint64(want) {
						t.Fatalf("%s: Load(%d, %d) = %d, %v, want %d", how, c, r, got, err, want)
					}
				}
				dst := make([]uint16, len(gather))
				s.GatherCodes(c, gather, dst)
				for i, r := range gather {
					if dst[i] != codes[c][r] {
						t.Fatalf("%s: GatherCodes row %d (entry %d) = %d, want %d", how, r, i, dst[i], codes[c][r])
					}
				}
			}
		}
		for _, mapped := range []bool{true, false} {
			restore := func() {}
			if !mapped {
				restore = blockfile.DisableMapping()
			}
			for _, path := range []string{created, written} {
				s, err := codestore.Open(path)
				if err != nil {
					restore()
					t.Fatalf("open %s (mapped %v): %v", filepath.Base(path), mapped, err)
				}
				check(filepath.Base(path), s, path == created)
			}
			restore()
		}
		s, err := codestore.OpenIn(blockfile.BytesRegion(raw), 0, int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		check("in memory", s, true)
	})
}

// wantCodeBits is the code width a column of bins takes: the smallest of 1,
// 2, 4, 8 and 16 bits whose values cover every code.
func wantCodeBits(bins int) int {
	switch {
	case bins <= 2:
		return 1
	case bins <= 4:
		return 2
	case bins <= 16:
		return 4
	case bins <= 256:
		return 8
	}
	return 16
}
