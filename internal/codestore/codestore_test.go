// Property tests for what is typed about the on-disk code store: u16 codes
// round-tripping through every accessor at the chunk boundaries (rows
// exactly at / one past the block size, the empty store), streamed chunks,
// and the error identities this package re-exports. The framing itself —
// every truncation length, every flipped byte, the atomic writer, both
// access paths — is tested once, for both formats, in internal/blockfile.
package codestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"subtab/internal/blockfile"
)

// randCodes builds cols column slices of n random codes < maxCode.
func randCodes(rng *rand.Rand, cols, n, maxCode int) [][]uint16 {
	out := make([][]uint16, cols)
	for c := range out {
		col := make([]uint16, n)
		for r := range col {
			col[r] = uint16(rng.Intn(maxCode))
		}
		out[c] = col
	}
	return out
}

// checkStore verifies every access path of an open store against the
// source codes: whole-column block reads, random access, and Verify.
func checkStore(t *testing.T, s *Store, codes [][]uint16) {
	t.Helper()
	n := 0
	if len(codes) > 0 {
		n = len(codes[0])
	}
	if s.NumRows() != n || s.NumCols() != len(codes) {
		t.Fatalf("store is %dx%d, source is %dx%d", s.NumRows(), s.NumCols(), n, len(codes))
	}
	wantBlocks := 0
	if n > 0 {
		wantBlocks = (n + s.BlockRows() - 1) / s.BlockRows()
	}
	if s.NumBlocks() != wantBlocks {
		t.Fatalf("store has %d blocks, want %d", s.NumBlocks(), wantBlocks)
	}
	var scratch []uint16
	for c := range codes {
		got := 0
		for blk := 0; blk < s.NumBlocks(); blk++ {
			block := s.ColumnBlock(c, blk, scratch)
			scratch = block
			for i, code := range block {
				r := blk*s.BlockRows() + i
				if code != codes[c][r] {
					t.Fatalf("col %d row %d (block %d): got %d want %d", c, r, blk, code, codes[c][r])
				}
				got++
			}
		}
		if got != n {
			t.Fatalf("col %d blocks covered %d rows, want %d", c, got, n)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200 && n > 0; i++ {
		c, r := rng.Intn(len(codes)), rng.Intn(n)
		if got := s.Code(c, r); got != codes[c][r] {
			t.Fatalf("random access (%d,%d): got %d want %d", c, r, got, codes[c][r])
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
		codes := randCodes(rng, 3, n, 40)
		path := filepath.Join(t.TempDir(), "s.codes")
		if err := WriteFile(path, codes, blockRows); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		checkStore(t, s, codes)
		s.Close()
	}
}

// TestStreamedChunksMatchOneShot pins that a writer fed odd-sized row
// chunks produces exactly the store a one-shot write does.
func TestStreamedChunksMatchOneShot(t *testing.T) {
	const blockRows, n, cols = 32, 533, 4
	rng := rand.New(rand.NewSource(2))
	codes := randCodes(rng, cols, n, 30)

	dir := t.TempDir()
	oneShot := filepath.Join(dir, "one.codes")
	if err := WriteFile(oneShot, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "stream.codes")
	w, err := Create(streamed, []int{30, 30, 30, 30}, n, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([][]uint16, cols)
	for start := 0; start < n; {
		// Ragged chunk sizes, including chunks spanning multiple blocks.
		size := min(1+rng.Intn(2*blockRows+5), n-start)
		for c := range chunk {
			chunk[c] = codes[c][start : start+size]
		}
		if err := w.AppendColumns(chunk); err != nil {
			t.Fatal(err)
		}
		start += size
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("streamed store differs from one-shot store (%d vs %d bytes)", len(b), len(a))
	}
}

// TestReopenAfterCrashTruncatedTail pins the error identity callers match
// on: a crashed AppendColumns writer's leftover (no Close) fails Open with
// this package's ErrTruncated. Every truncation length of a finished store
// is blockfile's TestReopenAfterCrash.
func TestReopenAfterCrashTruncatedTail(t *testing.T) {
	abandoned := filepath.Join(t.TempDir(), "a.codes")
	w, err := Create(abandoned, []int{20, 20}, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumns(randCodes(rand.New(rand.NewSource(3)), 2, 100, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(abandoned); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Open on an unfinalized store: got %v, want ErrTruncated", err)
	}
	w.Abort()
}

// TestCreateHoldsItsRowCount: a store file is exactly the Size its writer
// declared, and a writer given fewer or more rows than it declared fails
// Close and leaves a file Open rejects.
func TestCreateHoldsItsRowCount(t *testing.T) {
	dir := t.TempDir()
	codes := randCodes(rand.New(rand.NewSource(4)), 2, 100, 20)
	for _, rows := range []int{99, 100, 101} {
		path := filepath.Join(dir, fmt.Sprintf("%d.codes", rows))
		w, err := Create(path, []int{20, 20}, rows, 16)
		if err != nil {
			t.Fatal(err)
		}
		size := w.Size()
		if err := w.AppendColumns(codes); err != nil {
			t.Fatal(err)
		}
		err = w.Close()
		if rows != 100 {
			if err == nil {
				t.Fatalf("Close accepted 100 rows for a store declared with %d", rows)
			}
			if _, err := Open(path); err == nil {
				t.Fatalf("Open accepted a store declared with %d rows and given 100", rows)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Fatalf("store file of %d bytes, writer declared %d", fi.Size(), size)
		}
	}
}

// TestPerBlockChecksum pins that silent corruption surfaces under this
// package's ErrCorrupt: a flipped code passes Open, reads back as the wrong
// value, and fails Verify. Every byte position is blockfile's
// TestPerPageChecksum.
func TestPerBlockChecksum(t *testing.T) {
	const blockRows, n = 16, 100
	codes := randCodes(rand.New(rand.NewSource(4)), 2, n, 20)
	path := filepath.Join(t.TempDir(), "s.codes")
	if err := WriteFile(path, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last data byte — the last column's last code, one byte wide for
	// a column of 20 bins — sits just before the page index (one u32 per
	// page) and the footer.
	pages := (n + blockRows - 1) / blockRows * len(codes)
	full[len(full)-12-4*pages-1] ^= 0x04
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open should defer data-block validation to Verify, got %v", err)
	}
	defer s.Close()
	if s.CellBits(1) != 8 {
		t.Fatalf("a 20-bin column is stored in %d-bit cells, want 8", s.CellBits(1))
	}
	if got, want := s.Code(1, n-1), codes[1][n-1]^0x04; got != want {
		t.Fatalf("flipped code reads %d, want %d", got, want)
	}
	if err := s.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify on a bit-flipped block: got %v, want ErrCorrupt", err)
	}
}

// TestWriteFileAtomic pins that WriteFile leaves no temp droppings — on
// success, and when the final rename fails (onto a non-empty directory),
// where it used to leave path.tmp behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.codes")
	codes := randCodes(rand.New(rand.NewSource(5)), 2, 50, 10)
	if err := WriteFile(path, codes, 16); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("store dir has %d entries after WriteFile, want 1", len(entries))
	}
	taken := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(taken, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(taken, codes, 16); err == nil {
		t.Fatal("WriteFile onto a non-empty directory succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("store dir has %d entries after a failed rename, want 2 (no .tmp)", len(entries))
	}
}

// TestImage pins the embedded entry points: CreateIn streams byte for byte
// the file Create writes for the same bin counts, at the Size it declares
// before the first byte, and OpenIn reads it at its offset inside a larger
// file as Open reads the file; Columns decodes every column whole.
func TestImage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := append(randCodes(rng, 2, 300, 200), randCodes(rng, 1, 300, 3000)...)
	bins := []int{200, 200, 3000}
	path := filepath.Join(t.TempDir(), "img.codes")
	w, err := Create(path, bins, 300, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumns(codes); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file := bytes.NewBufferString("prefix")
	iw, err := CreateIn(file, bins, 300, 64)
	if err != nil {
		t.Fatal(err)
	}
	if iw.Size() != int64(len(want)) || file.Len() != len("prefix") {
		t.Fatalf("CreateIn declares %d bytes and wrote %d up front, want %d and none", iw.Size(), file.Len()-len("prefix"), len(want))
	}
	if err := iw.AppendColumns(codes); err != nil {
		t.Fatal(err)
	}
	if err := iw.Close(); err != nil {
		t.Fatal(err)
	}
	file.WriteString("suffix")
	if image := file.Bytes()[len("prefix") : file.Len()-len("suffix")]; !bytes.Equal(image, want) {
		t.Fatalf("CreateIn wrote %d bytes that differ from the %d-byte file Create writes", len(image), len(want))
	}
	s, err := OpenIn(blockfile.BytesRegion(file.Bytes()), int64(len("prefix")), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	checkStore(t, s, codes)
}
