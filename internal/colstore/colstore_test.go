// Property tests for what is typed about the paged raw-column store: cells
// rendered through the store being byte-identical to the resident table (the
// property the golden fingerprints depend on) at the chunk boundaries, over
// shard row ranges and through gathered views, plus the error identities
// this package re-exports. The framing itself — every truncation length,
// every flipped byte, the atomic writer, both access paths — is tested once,
// for both formats, in internal/blockfile.
package colstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"subtab/internal/table"
)

// randTable builds a table of numeric and categorical columns with missing
// cells sprinkled in — every cell shape the page encoding distinguishes.
func randTable(rng *rand.Rand, name string, n int) *table.Table {
	t := table.New(name)
	nums := make([]float64, n)
	for r := range nums {
		switch rng.Intn(5) {
		case 0:
			nums[r] = math.NaN() // missing
		case 1:
			nums[r] = float64(rng.Intn(1000)) // integral (FormatNum's short form)
		default:
			nums[r] = rng.NormFloat64() * 100
		}
	}
	if err := t.AddColumn(&table.Column{Name: "num", Kind: table.Numeric, Nums: nums}); err != nil {
		panic(err)
	}
	d := table.NewDict()
	cats := make([]int32, n)
	for r := range cats {
		if rng.Intn(6) == 0 {
			cats[r] = -1 // missing
		} else {
			cats[r] = d.Code(fmt.Sprintf("cat-%d", rng.Intn(12)))
		}
	}
	if err := t.AddColumn(&table.Column{Name: "cat", Kind: table.Categorical, Cats: cats, Dict: d}); err != nil {
		panic(err)
	}
	more := make([]float64, n)
	for r := range more {
		more[r] = float64(r) / 7
	}
	if err := t.AddColumn(&table.Column{Name: "seq", Kind: table.Numeric, Nums: more}); err != nil {
		panic(err)
	}
	return t
}

// checkStore verifies every access path of an open store against the source
// table: geometry, per-cell rendering, random gathers, materialization and
// Verify.
func checkStore(t *testing.T, s *Store, src *table.Table) {
	t.Helper()
	n := src.NumRows()
	if s.NumRows() != n || s.NumCols() != src.NumCols() {
		t.Fatalf("store is %dx%d, source is %dx%d", s.NumRows(), s.NumCols(), n, src.NumCols())
	}
	wantBlocks := 0
	if n > 0 {
		wantBlocks = (n + s.BlockRows() - 1) / s.BlockRows()
	}
	if s.NumBlocks() != wantBlocks {
		t.Fatalf("store has %d blocks, want %d", s.NumBlocks(), wantBlocks)
	}
	for c := 0; c < src.NumCols(); c++ {
		if got, want := s.ColumnName(c), src.ColumnAt(c).Name; got != want {
			t.Fatalf("column %d named %q, want %q", c, got, want)
		}
		if got, want := s.ColumnKind(c), src.ColumnAt(c).Kind; got != want {
			t.Fatalf("column %d kind %v, want %v", c, got, want)
		}
		for r := 0; r < n; r++ {
			got, err := s.Cell(c, r)
			if err != nil {
				t.Fatalf("cell (%d,%d): %v", c, r, err)
			}
			if want := src.ColumnAt(c).CellString(r); got != want {
				t.Fatalf("cell (%d,%d): got %q want %q", c, r, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20 && n > 0; i++ {
		c := rng.Intn(src.NumCols())
		rows := make([]int, 1+rng.Intn(10))
		for j := range rows {
			rows[j] = rng.Intn(n) // may repeat — GatherCells allows it
		}
		got, err := s.GatherCells(c, rows)
		if err != nil {
			t.Fatalf("gather col %d: %v", c, err)
		}
		for j, r := range rows {
			if want := src.ColumnAt(c).CellString(r); got[j] != want {
				t.Fatalf("gather col %d row %d: got %q want %q", c, r, got[j], want)
			}
		}
	}
	mat, err := s.MaterializeTable(src.Name)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if mat.NumRows() != n || mat.NumCols() != src.NumCols() {
		t.Fatalf("materialized table is %dx%d, want %dx%d", mat.NumRows(), mat.NumCols(), n, src.NumCols())
	}
	for c := 0; c < src.NumCols(); c++ {
		for r := 0; r < n; r++ {
			if got, want := mat.ColumnAt(c).CellString(r), src.ColumnAt(c).CellString(r); got != want {
				t.Fatalf("materialized cell (%d,%d): got %q want %q", c, r, got, want)
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestChunkBoundaries sweeps row counts around the block size — the edge
// cases of block arithmetic: one block exactly, one row past it, multiples,
// a final short block, a single row, and the empty store.
func TestChunkBoundaries(t *testing.T) {
	const blockRows = 64
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 2 * blockRows, 2*blockRows + 17, 5 * blockRows} {
		src := randTable(rng, "t", n)
		path := filepath.Join(t.TempDir(), "s.cols")
		if err := WriteTable(path, src, blockRows); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		checkStore(t, s, src)
		s.Close()
	}
}

// TestShardRowRanges pins WriteTableRows: shards cut at arbitrary rows
// (including off-block-boundary cuts and an empty shard) must each render
// their slice of the table exactly, with the full dictionary so global codes
// resolve in every shard.
func TestShardRowRanges(t *testing.T) {
	const blockRows, n = 32, 145
	rng := rand.New(rand.NewSource(2))
	src := randTable(rng, "t", n)
	dir := t.TempDir()
	cuts := []int{0, 50, 50, 130, n} // second shard empty: [50, 50)
	for i := 0; i+1 < len(cuts); i++ {
		start, end := cuts[i], cuts[i+1]
		path := filepath.Join(dir, fmt.Sprintf("s.cols.%03d", i))
		if end == start {
			// A zero-row shard is legal on the write side but pointless to
			// open; the sharded layer never cuts one. Skip opening.
			continue
		}
		if err := WriteTableRows(path, src, start, end, blockRows); err != nil {
			t.Fatalf("shard [%d,%d): write: %v", start, end, err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("shard [%d,%d): open: %v", start, end, err)
		}
		if s.NumRows() != end-start {
			t.Fatalf("shard [%d,%d) has %d rows", start, end, s.NumRows())
		}
		for c := 0; c < src.NumCols(); c++ {
			for r := start; r < end; r++ {
				got, err := s.Cell(c, r-start)
				if err != nil {
					t.Fatalf("shard [%d,%d) cell (%d,%d): %v", start, end, c, r-start, err)
				}
				if want := src.ColumnAt(c).CellString(r); got != want {
					t.Fatalf("shard [%d,%d) cell (%d,%d): got %q want %q", start, end, c, r-start, got, want)
				}
			}
		}
		s.Close()
	}
}

// TestPagedViewMatchesInlineView pins the property the golden fingerprints
// rest on: a view gathered through the store renders byte-identically to
// SubTableView on the resident table, across random row picks (repeats
// included) and column subsets.
func TestPagedViewMatchesInlineView(t *testing.T) {
	const blockRows, n = 16, 145
	rng := rand.New(rand.NewSource(3))
	src := randTable(rng, "t", n)
	path := filepath.Join(t.TempDir(), "s.cols")
	if err := WriteTable(path, src, blockRows); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allCols := []int{0, 1, 2}
	for trial := 0; trial < 30; trial++ {
		rows := make([]int, 1+rng.Intn(12))
		for j := range rows {
			rows[j] = rng.Intn(n)
		}
		cols := append([]int(nil), allCols[:1+rng.Intn(len(allCols))]...)
		names := make([]string, len(cols))
		for j, c := range cols {
			names[j] = src.ColumnAt(c).Name
		}
		inline, err := src.SubTableView(rows, names)
		if err != nil {
			t.Fatal(err)
		}
		paged, err := table.GatherView(s, src.Name, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := paged.Render(nil), inline.Render(nil); got != want {
			t.Fatalf("trial %d: paged view renders differently.\n got:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// TestReopenAfterCrashTruncatedTail pins the error identity callers match
// on: a crashed AppendRows writer's leftover (no Close) fails Open with this
// package's ErrTruncated. Every truncation length of a finished store is
// blockfile's TestReopenAfterCrash.
func TestReopenAfterCrashTruncatedTail(t *testing.T) {
	const n = 100
	src := randTable(rand.New(rand.NewSource(4)), "t", n)
	abandoned := filepath.Join(t.TempDir(), "a.cols")
	w, err := Create(abandoned, src, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRows(0, n); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(abandoned); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Open on an unfinalized store: got %v, want ErrTruncated", err)
	}
	w.Abort()
}

// TestPerPageChecksum pins that silent corruption surfaces under this
// package's ErrCorrupt, from Verify and — when the flip lands a categorical
// code outside its dictionary — from the typed accessors too. Every byte
// position is blockfile's TestPerPageChecksum.
func TestPerPageChecksum(t *testing.T) {
	const blockRows, n = 16, 100
	src := randTable(rand.New(rand.NewSource(5)), "t", n)
	path := filepath.Join(t.TempDir(), "s.cols")
	if err := WriteTable(path, src, blockRows); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Byte 2 of the first non-missing "cat" cell: setting a high bit of its
	// u32 code pushes it far past the 12-string dictionary.
	row := 0
	for src.ColumnAt(1).Cats[row] < 0 {
		row++
	}
	catCell := s.Off(1, 0) + int64(row)*4 + 2
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[catCell] ^= 0x40
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path); err != nil {
		t.Fatalf("Open should defer data-page validation to Verify, got %v", err)
	}
	defer s.Close()
	if err := s.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify on a bit-flipped page: got %v, want ErrCorrupt", err)
	}
	if _, err := s.Cell(1, row); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Cell on an out-of-dictionary code: got %v, want ErrCorrupt", err)
	}
	if _, err := s.MaterializeTable("t"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MaterializeTable on an out-of-dictionary code: got %v, want ErrCorrupt", err)
	}
}

// TestWriteTableAtomic pins that WriteTable leaves no temp droppings — on
// success, and when the final rename fails (onto a non-empty directory),
// where it used to leave path.tmp behind.
func TestWriteTableAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.cols")
	src := randTable(rand.New(rand.NewSource(6)), "t", 50)
	if err := WriteTable(path, src, 16); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("store dir has %d entries after WriteTable, want 1", len(entries))
	}
	taken := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(taken, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(taken, src, 16); err == nil {
		t.Fatal("WriteTable onto a non-empty directory succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("store dir has %d entries after a failed rename, want 2 (no .tmp)", len(entries))
	}
}
