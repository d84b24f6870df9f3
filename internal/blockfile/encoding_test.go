// The cell-encoding suite: each stored column's encoding is the narrowest
// exact one for its data, and every cell reads back exactly through every
// typed accessor of both stores, on both access paths. Cases sit on the
// edges of each choice: the NaN sentinel of each width, the 2^53 bound of
// exact integers, negative zero, infinities, subnormals of both float
// widths, and spans and dictionaries just below and above each cell width,
// the 1-, 2- and 4-bit ones included.
package blockfile_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/table"
)

// numCase is one numeric column: its values (repeated to fill the table)
// and the encoding and width in bits the writer must choose.
type numCase struct {
	name string
	vals []float64
	enc  colstore.Encoding
	bits int
}

func numCases() []numCase {
	nan := math.NaN()
	span := func(base float64, s float64) []float64 { return []float64{base, base + s, nan, base + math.Floor(s/2)} }
	return []numCase{
		{"constant", []float64{7}, colstore.Offset, 1},
		{"all-nan", []float64{nan}, colstore.Offset, 1},
		{"span-1", span(-3, 1), colstore.Offset, 2},
		{"span-2", span(40, 2), colstore.Offset, 2},
		{"span-3", span(40, 3), colstore.Offset, 4},
		{"span-14", span(-7, 14), colstore.Offset, 4},
		{"span-15", span(-7, 15), colstore.Offset, 8},
		{"span-254", span(-1000, 254), colstore.Offset, 8},
		{"span-255", span(-1000, 255), colstore.Offset, 16},
		{"span-256", span(3, 256), colstore.Offset, 16},
		{"span-65534", span(-5, 65534), colstore.Offset, 16},
		{"span-65535", span(0, 65535), colstore.Offset, 32},
		{"span-65536", span(1e9, 65536), colstore.Offset, 32},
		{"span-2^32-2", span(-7, 1<<32-2), colstore.Offset, 32},
		{"span-2^32-1", span(0, 1<<32-1), colstore.Float64, 64},
		{"at-2^53", []float64{1 << 53, 1<<53 - 1, nan}, colstore.Offset, 2},
		{"at-minus-2^53", []float64{-(1 << 53), -(1 << 53) + 200}, colstore.Offset, 8},
		{"past-2^53", []float64{1<<53 + 2, 1 << 53}, colstore.Float64, 64},
		{"negative-zero", []float64{0, math.Copysign(0, -1), 1}, colstore.Float32, 32},
		{"infinities", []float64{1, math.Inf(1), nan, math.Inf(-1)}, colstore.Float32, 32},
		{"float32-exact", []float64{0.5, -1.75, 3.125, nan, float64(float32(0.1))}, colstore.Float32, 32},
		{"float32-subnormal", []float64{math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32 * 3}, colstore.Float32, 32},
		{"float64-subnormal", []float64{math.SmallestNonzeroFloat64, 1}, colstore.Float64, 64},
		{"float64-max", []float64{math.MaxFloat64, -1}, colstore.Float64, 64},
		{"tenths", []float64{0.1, 0.2, nan}, colstore.Float64, 64},
	}
}

// catCase is one categorical column over a dictionary of size strings,
// stored in cells of bits.
type catCase struct {
	size, bits int
}

var catCases = []catCase{
	{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 4}, {15, 4}, {16, 8},
	{254, 8}, {255, 8}, {256, 16}, {65534, 16}, {65535, 16}, {65536, 32},
}

// encodingTable lays the cases out as the columns of one rows-row table.
func encodingTable(rows int) *table.Table {
	var cols []*table.Column
	for _, nc := range numCases() {
		nums := make([]float64, rows)
		for r := range nums {
			nums[r] = nc.vals[r%len(nc.vals)]
		}
		cols = append(cols, &table.Column{Name: nc.name, Kind: table.Numeric, Nums: nums})
	}
	for _, cc := range catCases {
		d := table.NewDict()
		for i := 0; i < cc.size; i++ {
			d.Code(fmt.Sprintf("s%d", i))
		}
		// Missing cells, the first and last code, and codes between.
		cats := make([]int32, rows)
		for r := range cats {
			cats[r] = -1
			if cc.size > 0 && r%5 != 4 {
				cats[r] = []int32{0, int32(cc.size - 1), int32(r * 7919 % cc.size)}[r%3]
			}
		}
		cols = append(cols, &table.Column{Name: fmt.Sprintf("dict-%d", cc.size), Kind: table.Categorical, Cats: cats, Dict: d})
	}
	t, err := table.FromColumns("enc", cols)
	if err != nil {
		panic(err)
	}
	return t
}

// checkCells asserts that every cell of the store at path reads back from
// src rows [start, start+rows) through Cell, GatherCells and
// MaterializeTable: rendered byte for byte as CellString, and as the source
// bits (any NaN as NaN).
func checkCells(t testing.TB, path string, src *table.Table, start int) *colstore.Store {
	t.Helper()
	s, err := colstore.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	mat, err := s.MaterializeTable("m")
	if err != nil {
		t.Fatalf("MaterializeTable: %v", err)
	}
	rows := make([]int, s.NumRows())
	for i := range rows {
		rows[i] = len(rows) - 1 - i // descending: every page revisited
	}
	for c := 0; c < src.NumCols(); c++ {
		col, got := src.ColumnAt(c), mat.ColumnAt(c)
		gathered, err := s.GatherCells(c, rows)
		if err != nil {
			t.Fatalf("column %q: GatherCells: %v", col.Name, err)
		}
		for r := 0; r < s.NumRows(); r++ {
			want := col.CellString(start + r)
			if cell, err := s.Cell(c, r); err != nil || cell != want {
				t.Fatalf("column %q row %d: Cell = %q, %v, want %q", col.Name, r, cell, err, want)
			}
			if g := gathered[len(rows)-1-r]; g != want {
				t.Fatalf("column %q row %d: GatherCells = %q, want %q", col.Name, r, g, want)
			}
			if col.Kind == table.Categorical {
				if got.Cats[r] != col.Cats[start+r] || got.CellString(r) != want {
					t.Fatalf("column %q row %d: materialized code %d, want %d", col.Name, r, got.Cats[r], col.Cats[start+r])
				}
				continue
			}
			v, w := got.Nums[r], col.Nums[start+r]
			if math.IsNaN(w) && !math.IsNaN(v) || !math.IsNaN(w) && math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("column %q row %d: materialized %v (%016x), want %v (%016x)", col.Name, r, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
	return s
}

// TestCellEncodings writes every edge case of the encoding choice and
// checks the width chosen for each column and every cell read back, on both
// access paths, for a whole table and for a shard's slice of it.
func TestCellEncodings(t *testing.T) {
	const rows, blockRows = 45, 16
	src := encodingTable(rows)
	dir := t.TempDir()
	whole, slice := filepath.Join(dir, "whole.cols"), filepath.Join(dir, "slice.cols")
	if err := colstore.WriteTable(whole, src, blockRows); err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteTableRows(slice, src, 7, 38, blockRows); err != nil {
		t.Fatal(err)
	}
	bothPaths(t, func(t *testing.T) {
		s := checkCells(t, whole, src, 0)
		defer s.Close()
		for c, nc := range numCases() {
			if enc, bits := s.ColumnEncoding(c), s.CellBits(c); enc != nc.enc || bits != nc.bits {
				t.Errorf("column %q stored as encoding %d at %d bits, want %d at %d", nc.name, enc, bits, nc.enc, nc.bits)
			}
		}
		for i, cc := range catCases {
			c := len(numCases()) + i
			if enc, bits := s.ColumnEncoding(c), s.CellBits(c); enc != colstore.DictCode || bits != cc.bits {
				t.Errorf("dictionary of %d strings stored as encoding %d at %d bits, want %d at %d", cc.size, enc, bits, colstore.DictCode, cc.bits)
			}
		}
		checkCells(t, slice, src, 7).Close()
	})
}

// TestCodeWidths checks the code store's width choice — 1 bit up to 2
// bins, 2 up to 4, 4 up to 16, 8 up to 256, else 16 — from Create's bin
// counts and from WriteFile's codes, and every code read back through
// ColumnBlock, Code and GatherCodes on both access paths.
func TestCodeWidths(t *testing.T) {
	const rows, blockRows = 45, 16
	codes := make([][]uint16, 8)
	for c := range codes {
		codes[c] = make([]uint16, rows)
	}
	for r := 0; r < rows; r++ {
		codes[0][r] = uint16(r * 37 % 256) // 256 bins
		codes[1][r] = uint16(r * 41 % 257) // 257 bins
		codes[2][r] = uint16(r % 3)
		codes[3][r] = uint16(65535 - r)
		codes[4][r] = uint16(r * 5 % 2)   // 2 bins
		codes[5][r] = uint16(r * 7 % 16)  // 16 bins
		codes[6][r] = uint16(r * 11 % 17) // 17 bins
		codes[7][r] = uint16(r % 4)       // 4 bins
	}
	codes[0][rows-1], codes[1][rows-1], codes[5][rows-1], codes[6][rows-1] = 255, 256, 15, 16
	bins := []int{256, 257, 3, 1 << 16, 2, 16, 17, 4}
	wantWidths := []int{8, 16, 2, 16, 1, 4, 8, 2}
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
	all := make([]int, rows)
	for i := range all {
		all[i] = (i * 17) % rows
	}
	bothPaths(t, func(t *testing.T) {
		for _, path := range []string{created, written} {
			s, err := codestore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for c := range codes {
				if got := s.CellBits(c); got != wantWidths[c] {
					t.Errorf("%s column %d: %d-bit codes, want %d", filepath.Base(path), c, got, wantWidths[c])
				}
				var col []uint16
				for blk := 0; blk < s.NumBlocks(); blk++ {
					col = append(col, s.ColumnBlock(c, blk, nil)...)
				}
				gathered := make([]uint16, len(all))
				s.GatherCodes(c, all, gathered)
				for r := 0; r < rows; r++ {
					if col[r] != codes[c][r] || s.Code(c, r) != codes[c][r] {
						t.Fatalf("%s (%d,%d): block %d, Code %d, want %d", filepath.Base(path), c, r, col[r], s.Code(c, r), codes[c][r])
					}
				}
				for i, r := range all {
					if gathered[i] != codes[c][r] {
						t.Fatalf("%s (%d,%d): GatherCodes %d, want %d", filepath.Base(path), c, r, gathered[i], codes[c][r])
					}
				}
			}
			s.Close()
		}
	})
	// A code past its column's declared bins cannot be stored narrow.
	for _, over := range []struct{ bins, code int }{{256, 256}, {16, 16}, {4, 4}, {2, 2}} {
		w, err = codestore.Create(filepath.Join(dir, "over.codes"), []int{over.bins}, 2, blockRows)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendColumns([][]uint16{{1, uint16(over.code)}}); err == nil {
			t.Fatalf("a %d-bin column accepted code %d", over.bins, over.code)
		}
		w.Abort()
	}
}

// FuzzCellEncoding is differential: arbitrary float64 bit patterns, small
// integers over a span mode picks (1 to 20 values, so 1-, 2-, 4- and 8-bit
// Offset cells) and a dictionary of arbitrary size (sub-byte DictCode cells
// up to 15 strings) are written to a column store, which must open and
// render every cell exactly as Column.CellString does, and materialize the
// source bits (any NaN as NaN), on the access path mode selects. Its 7-row
// blocks leave sub-byte pages ending mid-byte. It runs as a regression test
// over its seeds on every plain `go test`.
func FuzzCellEncoding(f *testing.F) {
	seed := func(mode byte, dict uint32, vals ...float64) {
		var raw []byte
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(mode, dict, raw)
	}
	seed(0, 0)
	seed(1, 3, 1, 2, 3)
	seed(2, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	seed(5, 2, 0.25, -3, 11, 12, 13, 14, 15, 16, 17, 18)
	seed(6, 4, math.NaN(), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
	seed(31, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	seed(38, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	seed(0, 255, math.NaN(), math.Copysign(0, -1), math.Inf(1), 1<<53)
	seed(1, 256, 1<<53+2, math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat32)
	seed(0, 1<<31+1, 0.5, -1.75, 1e300, -1e-300)
	seed(1, 1<<31+2, -(1 << 53), 1<<32-2, 0)
	f.Fuzz(func(t *testing.T, mode byte, dict uint32, raw []byte) {
		if mode&1 != 0 {
			blockfile.NoMmap(t)
		}
		n := min(len(raw)/8, 300)
		// Small dictionaries, or one within a few strings of 2^16: both
		// sides of every code width, without building 65536 strings a run.
		size := int(dict % 1024)
		if dict >= 1<<31 {
			size = 1<<16 - 2 + int(dict%4)
		}
		span := 1 + int(mode>>1)%20
		nums := make([]float64, n)
		small := make([]float64, n)
		cats := make([]int32, n)
		d := table.NewDict()
		for i := 0; i < size; i++ {
			d.Code(fmt.Sprint(i))
		}
		for r := range nums {
			bits := binary.LittleEndian.Uint64(raw[r*8:])
			nums[r] = math.Float64frombits(bits)
			small[r] = float64(int64(bits%uint64(span)) - 3)
			if bits%11 == 0 {
				small[r] = math.NaN()
			}
			cats[r] = -1
			if size > 0 && bits%7 != 0 {
				cats[r] = int32(bits % uint64(size))
			}
		}
		src, err := table.FromColumns("fuzz", []*table.Column{
			{Name: "num", Kind: table.Numeric, Nums: nums},
			{Name: "small", Kind: table.Numeric, Nums: small},
			{Name: "cat", Kind: table.Categorical, Cats: cats, Dict: d},
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "f.cols")
		if err := colstore.WriteTable(path, src, 7); err != nil {
			t.Fatal(err)
		}
		s := checkCells(t, path, src, 0)
		defer s.Close()
		for c := 0; c < s.NumCols(); c++ {
			if bits := s.CellBits(c); slices.Index([]int{1, 2, 4, 8, 16, 32, 64}, bits) < 0 {
				t.Fatalf("column %d: cells %d bits wide", c, bits)
			}
		}
		// The span fits 8 bits below the sentinel; the dictionary's width
		// follows its size.
		if bits := s.CellBits(1); s.ColumnEncoding(1) != colstore.Offset || bits > 8 {
			t.Fatalf("%d-value integer column stored as encoding %d at %d bits", span, s.ColumnEncoding(1), bits)
		}
		if size <= 15 && s.CellBits(2) > 4 {
			t.Fatalf("%d-string dictionary stored at %d bits", size, s.CellBits(2))
		}
	})
}

// TestHostileMeta patches the encoding entries of zero-row version-3 stores
// (so a resealed footer gets them past the checksum): an unknown encoding
// byte, an encoding the column's kind cannot have, a width its encoding
// cannot have, and an offset base outside ±2^53 are all ErrCorrupt, with a
// bounded allocation; in-range patches open.
func TestHostileMeta(t *testing.T) {
	dir := t.TempDir()
	cols := filepath.Join(dir, "empty.cols")
	src, err := table.FromColumns("h", []*table.Column{{Name: "x", Kind: table.Numeric, Nums: []float64{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteTable(cols, src, 16); err != nil {
		t.Fatal(err)
	}
	codes := filepath.Join(dir, "empty.codes")
	if err := codestore.WriteFile(codes, [][]uint16{{}, {}}, 16); err != nil {
		t.Fatal(err)
	}
	// Column store meta, after the u32 length at HeaderSize: u16 nameLen,
	// "x", kind, encoding, width, i64 base. Code store meta: one width byte
	// per column.
	meta := blockfile.HeaderSize + 4
	enc, width, base := meta+4, meta+5, meta+6
	setBase := func(v int64) func([]byte) {
		return func(raw []byte) { binary.LittleEndian.PutUint64(raw[base:], uint64(v)) }
	}
	setByte := func(at int, v byte) func([]byte) { return func(raw []byte) { raw[at] = v } }
	for _, tc := range []struct {
		name  string
		path  string
		patch func([]byte)
		ok    bool
	}{
		{"offset as written", cols, func([]byte) {}, true},
		{"offset at 2 bits", cols, setByte(width, 2), true},
		{"offset at 4 bits", cols, setByte(width, 4), true},
		{"offset at 8 bits", cols, setByte(width, 8), true},
		{"offset at 32 bits", cols, setByte(width, 32), true},
		{"base -2^53", cols, setBase(-(1 << 53)), true},
		{"base 2^53", cols, setBase(1 << 53), true},
		{"encoding 0", cols, setByte(enc, 0), false},
		{"encoding 5", cols, setByte(enc, 5), false},
		{"encoding 255", cols, setByte(enc, 255), false},
		{"dictionary code on a numeric column", cols, setByte(enc, byte(colstore.DictCode)), false},
		{"float32 at 1 bit", cols, setByte(enc, byte(colstore.Float32)), false},
		{"float64 at 1 bit", cols, setByte(enc, byte(colstore.Float64)), false},
		{"offset at 3 bits", cols, setByte(width, 3), false},
		{"offset at 64 bits", cols, setByte(width, 64), false},
		{"offset at 0 bits", cols, setByte(width, 0), false},
		{"base 2^53+1", cols, setBase(1<<53 + 1), false},
		{"base -2^53-1", cols, setBase(-(1 << 53) - 1), false},
		{"base max int64", cols, setBase(math.MaxInt64), false},
		{"base min int64", cols, setBase(math.MinInt64), false},
		{"code width 2", codes, setByte(meta+1, 2), true},
		{"code width 4", codes, setByte(meta+1, 4), true},
		{"code width 16", codes, setByte(meta, 16), true},
		{"code width 0", codes, setByte(meta, 0), false},
		{"code width 3", codes, setByte(meta+1, 3), false},
		{"code width 32", codes, setByte(meta+1, 32), false},
		{"code width 255", codes, setByte(meta, 255), false},
	} {
		raw, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		tc.patch(raw)
		crafted := filepath.Join(dir, "crafted"+filepath.Ext(tc.path))
		if err := os.WriteFile(crafted, reseal(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		var f *blockfile.File
		n := allocatedBy(func() {
			if filepath.Ext(tc.path) == ".cols" {
				var s *colstore.Store
				if s, err = colstore.Open(crafted); err == nil {
					f = s.File
				}
			} else {
				var s *codestore.Store
				if s, err = codestore.Open(crafted); err == nil {
					f = s.File
				}
			}
		})
		if n > 64<<10 {
			t.Errorf("%s: opening a %d-byte file allocated %d bytes", tc.name, len(raw), n)
		}
		if tc.ok {
			if err != nil {
				t.Errorf("%s: Open: %v", tc.name, err)
				continue
			}
			f.Close()
			continue
		}
		if !errors.Is(err, blockfile.ErrCorrupt) {
			t.Errorf("%s: Open returned %v, want ErrCorrupt", tc.name, err)
		}
	}
}
