// Property tests for what is typed about the paged raw-column store: cells
// rendered through the store being byte-identical to the resident table (the
// property the golden fingerprints depend on) at the chunk boundaries, over
// shard row ranges and through gathered views, plus the error identities
// this package re-exports. The framing itself — every truncation length,
// every flipped byte, the atomic writer, both access paths — is tested once,
// for both formats, in internal/blockfile.
package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"subtab/internal/blockfile"
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
// resolve in every shard. Concat of the shards materializes the whole table,
// and refuses shards of another table as corrupt.
func TestShardRowRanges(t *testing.T) {
	const blockRows, n = 32, 145
	rng := rand.New(rand.NewSource(2))
	src := randTable(rng, "t", n)
	dir := t.TempDir()
	cuts := []int{0, 50, 50, 130, n} // second shard empty: [50, 50)
	var shards []*Store
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
		defer s.Close()
		shards = append(shards, s)
	}
	mat, err := Concat("t", shards)
	if err != nil {
		t.Fatal(err)
	}
	if mat.NumRows() != n || mat.NumCols() != src.NumCols() {
		t.Fatalf("concatenated table is %dx%d, want %dx%d", mat.NumRows(), mat.NumCols(), n, src.NumCols())
	}
	for c := 0; c < src.NumCols(); c++ {
		for r := 0; r < n; r++ {
			if got, want := mat.ColumnAt(c).CellString(r), src.ColumnAt(c).CellString(r); got != want {
				t.Fatalf("concatenated cell (%d,%d): got %q want %q", c, r, got, want)
			}
		}
	}
	other := filepath.Join(dir, "other.cols")
	if err := WriteTable(other, randTable(rand.New(rand.NewSource(3)), "u", 40), blockRows); err != nil {
		t.Fatal(err)
	}
	o, err := Open(other)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := Concat("t", []*Store{shards[0], o}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Concat of another table's store: %v, want ErrCorrupt", err)
	}
}

// TestPagedViewMatchesInlineView pins the property the golden fingerprints
// rest on: a view gathered through the store, or through the resident
// table as its own cell source, renders byte-identically to SubTableView on
// the resident table, across random row picks (missing cells and a repeated
// row included) and column subsets. The table's husk has no cells to
// gather and answers an error.
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
		rows = append(rows, rows[0])
		cols := append([]int(nil), allCols[:1+rng.Intn(len(allCols))]...)
		names := make([]string, len(cols))
		for j, c := range cols {
			names[j] = src.ColumnAt(c).Name
		}
		inline, err := src.SubTableView(rows, names)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range []table.CellSource{s, src} {
			gathered, err := table.GatherView(cs, src.Name, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := gathered.Render(nil), inline.Render(nil); got != want {
				t.Fatalf("trial %d: view gathered from %T renders differently.\n got:\n%s\nwant:\n%s", trial, cs, got, want)
			}
		}
	}
	src.DropCells()
	if _, err := table.GatherView(src, src.Name, []int{0}, allCols); err == nil {
		t.Fatal("gathering a view from a paged husk: no error")
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
	w, err := Create(abandoned, src, 0, n, 16)
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
	// The first non-missing "cat" cell, a 4-bit cell over the 12-string
	// dictionary: rewriting its bits to 13 puts the code past the
	// dictionary (15 would be the missing-cell sentinel).
	row := 0
	for src.ColumnAt(1).Cats[row] < 0 {
		row++
	}
	if s.CellBits(1) != 4 {
		t.Fatalf("a 12-string dictionary is stored in %d-bit cells, want 4", s.CellBits(1))
	}
	catCell, shift := s.CellOff(1, row), row%blockRows*4%8
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[catCell] = full[catCell]&^(0xF<<shift) | 13<<shift
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

// TestTableImage pins the embedded entry points: CreateIn streams byte for
// byte the file WriteTable writes, at the Size it declares before the
// first byte, and OpenIn reads it at its offset inside a larger file as
// Open reads the file.
func TestTableImage(t *testing.T) {
	src := randTable(rand.New(rand.NewSource(3)), "img", 700)
	path := filepath.Join(t.TempDir(), "img.cols")
	if err := WriteTable(path, src, 256); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file := bytes.NewBufferString("prefix")
	image := imageOf(t, file, src, 256)
	if !bytes.Equal(image, want) {
		t.Fatalf("CreateIn wrote %d bytes that differ from the %d-byte file WriteTable writes", len(image), len(want))
	}
	s, err := OpenIn(blockfile.BytesRegion(file.Bytes()), int64(len("prefix")), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Path() != "" || s.NumBlocks() != 3 {
		t.Fatalf("image store: path %q, %d blocks", s.Path(), s.NumBlocks())
	}
	checkStore(t, s, src)
}

// imageOf streams src's store image into file through CreateIn, checks it
// came out at the Size declared before its first byte, and returns it.
func imageOf(t *testing.T, file *bytes.Buffer, src *table.Table, blockRows int) []byte {
	t.Helper()
	at := file.Len()
	w, err := CreateIn(file, src, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	if file.Len() != at {
		t.Fatal("CreateIn wrote before the first page")
	}
	if err := w.AppendRows(0, src.NumRows()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := int64(file.Len() - at); got != w.Size() {
		t.Fatalf("CreateIn declared %d bytes and wrote %d", w.Size(), got)
	}
	return file.Bytes()[at:]
}

// TestMaterializeRejectsRepeatedDictionary: a dictionary page whose
// strings repeat (damage the footer checksum cannot see once resealed)
// cannot become a table dictionary, which interns each string once — its
// codes would point past the rebuilt dictionary.
func TestMaterializeRejectsRepeatedDictionary(t *testing.T) {
	src, err := table.FromColumns("dup", []*table.Column{table.NewCategorical("cat", []string{"a", "b", "a"})})
	if err != nil {
		t.Fatal(err)
	}
	image := imageOf(t, &bytes.Buffer{}, src, 0)
	at := bytes.Index(image, []byte{1, 0, 0, 0, 'b'})
	image[at+4] = 'a'
	// Reseal the footer over header, meta and the one-page index.
	metaEnd := 26 + 4 + int(binary.LittleEndian.Uint32(image[26:]))
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	h.Write(image[:metaEnd])
	h.Write(image[len(image)-16 : len(image)-12])
	binary.LittleEndian.PutUint32(image[len(image)-12:], h.Sum32())
	s, err := OpenIn(blockfile.BytesRegion(image), 0, int64(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MaterializeTable("dup"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("materializing a repeated dictionary: err = %v, want ErrCorrupt", err)
	}
}
