// Format golden: the bytes both stores write are pinned by SHA-256 and by a
// checked-in copy of every file. Version-3 files are re-written and compared
// byte for byte, and every checked-in copy is opened and every typed value
// read back — the proof that no byte on disk moved. Version-1 files,
// recorded before the stores moved onto this package, and version-2 files,
// recorded before sub-byte cells, are retired: their checked-in bytes must
// still match the record, and opening them must fail with ErrVersion.
package blockfile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/table"
)

var update = flag.Bool("update", false, "re-record testdata/format_golden.json and testdata/stores/")

const goldenBlockRows = 16

// goldenRows are the row counts around the block arithmetic's edges: empty,
// one row, exactly one block, one block + 1 row, 3 blocks with a short tail.
var goldenRows = []int{0, 1, goldenBlockRows, goldenBlockRows + 1, 2*goldenBlockRows + 8}

type goldenEntry struct {
	Name     string `json:"name"`
	Size     int    `json:"size"`
	SHA256   string `json:"sha256"`
	Checksum uint32 `json:"checksum"`
}

// goldenCodes is a deterministic 3-column code matrix covering the whole
// u16 range (no math/rand: the bytes must not depend on a library stream).
func goldenCodes(n int) [][]uint16 {
	codes := make([][]uint16, 3)
	for c := range codes {
		codes[c] = make([]uint16, n)
		for r := range codes[c] {
			codes[c][r] = uint16((uint32(r+1)*2654435761 + uint32(c)*40503) >> 13)
		}
	}
	return codes
}

// goldenNarrowCodes is goldenCodes plus two columns whose codes fit one
// byte.
func goldenNarrowCodes(n int) [][]uint16 {
	codes := goldenCodes(n)
	narrow := [2][]uint16{make([]uint16, n), make([]uint16, n)}
	for r := 0; r < n; r++ {
		narrow[0][r] = codes[0][r] & 0xFF
		narrow[1][r] = uint16(r % 7)
	}
	return append(codes, narrow[0], narrow[1])
}

// goldenPackedCodes is goldenNarrowCodes plus a column of each sub-byte
// width, so a version-3 store holds every code width: 16, 16, 16, 8, 4
// (goldenNarrowCodes' 7-bin column), then 1, 2 and 4 bits.
func goldenPackedCodes(n int) [][]uint16 {
	codes := goldenNarrowCodes(n)
	packed := [3][]uint16{make([]uint16, n), make([]uint16, n), make([]uint16, n)}
	for r := 0; r < n; r++ {
		packed[0][r] = uint16(r*5/3) % 2
		packed[1][r] = uint16(r % 3)
		packed[2][r] = uint16(r*5) % 16
	}
	return append(codes, packed[:]...)
}

// goldenBins bounds goldenPackedCodes' columns.
var goldenBins = []int{1 << 16, 1 << 16, 1 << 16, 1 << 8, 7, 2, 3, 16}

// goldenTable has the basic cell shapes: numeric values with NaN and
// integral cells, a categorical column with missing cells, and an
// all-missing categorical column (empty dictionary page).
func goldenTable(n int) *table.Table {
	nums := make([]float64, n)
	cats := make([]int32, n)
	gone := make([]int32, n)
	d := table.NewDict()
	for r := 0; r < n; r++ {
		switch r % 4 {
		case 0:
			nums[r] = math.NaN()
		case 1:
			nums[r] = float64(r * 3)
		default:
			nums[r] = float64(r)*1.25 - 7.5
		}
		if r%5 == 3 {
			cats[r] = -1
		} else {
			cats[r] = d.Code(fmt.Sprintf("cat-%d", (r*7)%6))
		}
		gone[r] = -1
	}
	t, err := table.FromColumns("golden", []*table.Column{
		{Name: "num", Kind: table.Numeric, Nums: nums},
		{Name: "cat", Kind: table.Categorical, Cats: cats, Dict: d},
		{Name: "gone", Kind: table.Categorical, Cats: gone, Dict: table.NewDict()},
	})
	if err != nil {
		panic(err)
	}
	return t
}

// goldenWideTable is goldenTable plus a column of every other encoding:
// offset integers at several widths (one with a negative base) and
// float64 fractions; goldenTable's own columns are Float32 and DictCode.
func goldenWideTable(n int) *table.Table {
	t := goldenTable(n)
	small, mid, wide, frac := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for r := 0; r < n; r++ {
		small[r] = float64(r%9 - 4)
		mid[r] = float64(r * 1009)
		wide[r] = float64(r*104729 - 1<<21)
		frac[r] = float64(r) / 7
	}
	if n > 0 {
		small[n/2] = math.NaN()
	}
	for _, col := range []*table.Column{
		{Name: "small", Kind: table.Numeric, Nums: small},
		{Name: "mid", Kind: table.Numeric, Nums: mid},
		{Name: "wide", Kind: table.Numeric, Nums: wide},
		{Name: "frac", Kind: table.Numeric, Nums: frac},
	} {
		if err := t.AddColumn(col); err != nil {
			panic(err)
		}
	}
	return t
}

// goldenPackedTable is goldenWideTable plus integer columns at the two
// sub-byte Offset widths it lacks: a 2-bit one (three values and NaN) and a
// 1-bit one (one value and NaN). goldenWideTable's own "small" and "cat"
// columns take 4 bits, "gone" 1.
func goldenPackedTable(n int) *table.Table {
	t := goldenWideTable(n)
	tri, one := make([]float64, n), make([]float64, n)
	for r := 0; r < n; r++ {
		tri[r], one[r] = float64(r%3-1), 42
		if r%5 == 2 {
			tri[r] = math.NaN()
		}
		if r%3 == 1 {
			one[r] = math.NaN()
		}
	}
	for _, col := range []*table.Column{
		{Name: "tri", Kind: table.Numeric, Nums: tri},
		{Name: "one", Kind: table.Numeric, Nums: one},
	} {
		if err := t.AddColumn(col); err != nil {
			panic(err)
		}
	}
	return t
}

// goldenCase is one pinned store file: write produces it (nil for a
// retired version-1 or version-2 file), check opens a copy (fresh or
// checked in) and reads every typed value back — or, for a retired file,
// requires the refusal — returning the store's identity checksum.
type goldenCase struct {
	name  string
	write func(path string) error
	check func(t *testing.T, path string) uint32
}

// retiredCases are the version-1 and version-2 files: the first recorded
// before the stores moved onto this package, the second before sub-byte
// cells, with a shard's slice (rows [9, 31) of the 40-row table, cut off
// the block grid at both ends) of each cells version.
func retiredCases() []goldenCase {
	var cases []goldenCase
	for _, infix := range []string{"", "v2_"} {
		for _, n := range goldenRows {
			cases = append(cases,
				goldenCase{name: fmt.Sprintf("codes_%s%02d.codes", infix, n), check: checkRetiredCodes},
				goldenCase{name: fmt.Sprintf("cells_%s%02d.cols", infix, n), check: checkRetiredCells})
		}
		cases = append(cases, goldenCase{name: "cells_" + infix + "40_rows_09_31.cols", check: checkRetiredCells})
	}
	return cases
}

// checkRetiredCodes and checkRetiredCells require a retired store's
// refusal: Open fails with ErrVersion, not ErrCorrupt. They return the
// footer checksum its bytes record.
func checkRetiredCodes(t *testing.T, path string) uint32 {
	_, err := codestore.Open(path)
	return checkRetired(t, path, err)
}

func checkRetiredCells(t *testing.T, path string) uint32 {
	_, err := colstore.Open(path)
	return checkRetired(t, path, err)
}

func checkRetired(t *testing.T, path string, err error) uint32 {
	t.Helper()
	if !errors.Is(err, blockfile.ErrVersion) || errors.Is(err, blockfile.ErrCorrupt) {
		t.Fatalf("open %s: %v, want ErrVersion and not ErrCorrupt", path, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(raw[len(raw)-12:])
}

func goldenCases() []goldenCase {
	cases := retiredCases()
	for _, n := range goldenRows {
		codes := goldenPackedCodes(n)
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("codes_v3_%02d.codes", n),
			write: func(path string) error { return codestore.WriteFile(path, codes, goldenBlockRows) },
			check: func(t *testing.T, path string) uint32 { return checkGoldenCodes(t, path, codes) },
		})
		src := goldenPackedTable(n)
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("cells_v3_%02d.cols", n),
			write: func(path string) error { return colstore.WriteTable(path, src, goldenBlockRows) },
			check: func(t *testing.T, path string) uint32 { return checkGoldenCells(t, path, src, 0, n) },
		})
	}
	packed := goldenPackedTable(40)
	cases = append(cases, goldenCase{
		name:  "cells_v3_40_rows_09_31.cols",
		write: func(path string) error { return colstore.WriteTableRows(path, packed, 9, 31, goldenBlockRows) },
		check: func(t *testing.T, path string) uint32 { return checkGoldenCells(t, path, packed, 9, 31) },
	})
	return cases
}

func checkGoldenCodes(t *testing.T, path string, codes [][]uint16) uint32 {
	t.Helper()
	s, err := codestore.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer s.Close()
	n := len(codes[0])
	if s.NumRows() != n || s.NumCols() != len(codes) || s.BlockRows() != goldenBlockRows {
		t.Fatalf("%s is %dx%d at %d rows/block, want %dx%d at %d", path, s.NumRows(), s.NumCols(), s.BlockRows(), n, len(codes), goldenBlockRows)
	}
	for c := range codes {
		for r := 0; r < n; r++ {
			if got := s.Code(c, r); got != codes[c][r] {
				t.Fatalf("%s: code (%d,%d) = %d, want %d", path, c, r, got, codes[c][r])
			}
		}
		for blk := 0; blk < s.NumBlocks(); blk++ {
			for i, got := range s.ColumnBlock(c, blk, nil) {
				if want := codes[c][blk*goldenBlockRows+i]; got != want {
					t.Fatalf("%s: block (%d,%d)[%d] = %d, want %d", path, c, blk, i, got, want)
				}
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", path, err)
	}
	return s.Checksum()
}

func checkGoldenCells(t *testing.T, path string, src *table.Table, start, end int) uint32 {
	t.Helper()
	s, err := colstore.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer s.Close()
	if s.NumRows() != end-start || s.NumCols() != src.NumCols() || s.BlockRows() != goldenBlockRows {
		t.Fatalf("%s is %dx%d at %d rows/block, want %dx%d at %d", path, s.NumRows(), s.NumCols(), s.BlockRows(), end-start, src.NumCols(), goldenBlockRows)
	}
	mat, err := s.MaterializeTable("golden")
	if err != nil {
		t.Fatalf("%s: materialize: %v", path, err)
	}
	for c := 0; c < src.NumCols(); c++ {
		col := src.ColumnAt(c)
		if s.ColumnName(c) != col.Name || s.ColumnKind(c) != col.Kind {
			t.Fatalf("%s: column %d is %q/%v, want %q/%v", path, c, s.ColumnName(c), s.ColumnKind(c), col.Name, col.Kind)
		}
		for r := start; r < end; r++ {
			want := col.CellString(r)
			if got, err := s.Cell(c, r-start); err != nil || got != want {
				t.Fatalf("%s: cell (%d,%d) = %q, %v, want %q", path, c, r-start, got, err, want)
			}
			if got := mat.ColumnAt(c).CellString(r - start); got != want {
				t.Fatalf("%s: materialized cell (%d,%d) = %q, want %q", path, c, r-start, got, want)
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", path, err)
	}
	return s.Checksum()
}

// TestFormatGolden pins every byte both stores write, and the refusal of
// every version-1 and version-2 file the retired formats wrote.
func TestFormatGolden(t *testing.T) {
	const jsonPath = "testdata/format_golden.json"
	storeDir := filepath.Join("testdata", "stores")
	var want []goldenEntry
	if !*update {
		raw, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	cases := goldenCases()
	if !*update && len(want) != len(cases) {
		t.Fatalf("golden records %d stores, the test has %d", len(want), len(cases))
	}
	var got []goldenEntry
	for i, gc := range cases {
		checkedIn := filepath.Join(storeDir, gc.name)
		if gc.write == nil {
			// Versions 1 and 2: the checked-in bytes are the record; they must
			// still match it, and opening them must fail as a version.
			raw, err := os.ReadFile(checkedIn)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			e := goldenEntry{Name: gc.name, Size: len(raw), SHA256: hex.EncodeToString(sum[:]), Checksum: gc.check(t, checkedIn)}
			got = append(got, e)
			if !*update && e != want[i] {
				t.Errorf("%s: checked-in file is %+v, golden is %+v", gc.name, e, want[i])
			}
			continue
		}
		fresh := filepath.Join(t.TempDir(), gc.name)
		if err := gc.write(fresh); err != nil {
			t.Fatalf("%s: write: %v", gc.name, err)
		}
		raw, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		e := goldenEntry{Name: gc.name, Size: len(raw), SHA256: hex.EncodeToString(sum[:]), Checksum: gc.check(t, fresh)}
		got = append(got, e)
		if *update {
			if err := os.MkdirAll(storeDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(checkedIn, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if e != want[i] {
			t.Errorf("%s: wrote %+v, golden is %+v", gc.name, e, want[i])
		}
		old, err := os.ReadFile(checkedIn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, old) {
			t.Errorf("%s: freshly written bytes differ from the checked-in file", gc.name)
		}
		if sum := gc.check(t, checkedIn); sum != want[i].Checksum {
			t.Errorf("%s: checked-in file has checksum %08x, golden is %08x", gc.name, sum, want[i].Checksum)
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
