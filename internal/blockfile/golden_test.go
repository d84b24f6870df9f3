// Format golden: the bytes both stores write are pinned by SHA-256 and by a
// checked-in copy of every file, recorded on the tree *before* the stores
// moved onto this package. The test re-writes each store and compares it
// byte for byte, then opens the checked-in (parent-written) copy and reads
// every typed value back — the proof that no byte on disk moved and that
// spill files written by an older build still open. This file imports only
// the two store packages, so it runs unchanged on a clone of that older tree.
package blockfile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

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

// goldenTable has every cell shape the page encoding distinguishes: numeric
// values with NaN and integral cells, a categorical column with missing
// cells, and an all-missing categorical column (empty dictionary page).
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

// goldenCase is one pinned store file: write produces it, check opens a
// copy (fresh or checked in) and reads every typed value back, returning
// the store's identity checksum.
type goldenCase struct {
	name  string
	write func(path string) error
	check func(t *testing.T, path string) uint32
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, n := range goldenRows {
		codes := goldenCodes(n)
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("codes_%02d.codes", n),
			write: func(path string) error { return codestore.WriteFile(path, codes, goldenBlockRows) },
			check: func(t *testing.T, path string) uint32 { return checkGoldenCodes(t, path, codes) },
		})
		src := goldenTable(n)
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("cells_%02d.cols", n),
			write: func(path string) error { return colstore.WriteTable(path, src, goldenBlockRows) },
			check: func(t *testing.T, path string) uint32 { return checkGoldenCells(t, path, src, 0, n) },
		})
	}
	// A shard's slice: rows [9, 31) of the 40-row table, cut off the block
	// grid at both ends, with the full dictionaries.
	src := goldenTable(40)
	cases = append(cases, goldenCase{
		name:  "cells_40_rows_09_31.cols",
		write: func(path string) error { return colstore.WriteTableRows(path, src, 9, 31, goldenBlockRows) },
		check: func(t *testing.T, path string) uint32 { return checkGoldenCells(t, path, src, 9, 31) },
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

// TestFormatGolden pins every byte both stores write.
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
		t.Fatalf("golden records %d stores, the test writes %d", len(want), len(cases))
	}
	var got []goldenEntry
	for i, gc := range cases {
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
		checkedIn := filepath.Join(storeDir, gc.name)
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
		// The checked-in copy was written by the tree before this package
		// existed: it must still open, verify and read back typed.
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
