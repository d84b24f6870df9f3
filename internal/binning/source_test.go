// Tests for the CodeSource abstraction: the resident MemCodes view, store
// attachment validation, export/import round trips and materialization.
package binning_test

import (
	"path/filepath"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/datagen"
)

func testBinned(t *testing.T) *binning.Binned {
	t.Helper()
	ds := datagen.Generic(500, 5, 4, 3)
	b, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storeFor exports b's codes to a fresh code store with small blocks (so
// block logic is actually exercised) and opens it.
func storeFor(t testing.TB, b *binning.Binned, blockRows int) *codestore.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "codes")
	w, err := codestore.Create(path, b.NumBins(), b.NumRows(), blockRows)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExportCodes(w, 13); err != nil { // ragged chunks across blocks
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestInlineSourceMatchesCodes pins the in-memory CodeSource view.
func TestInlineSourceMatchesCodes(t *testing.T) {
	b := testBinned(t)
	src := b.Source()
	codes, ok := src.(binning.MemCodes)
	if !ok || b.Paged() {
		t.Fatalf("a fresh binning's source is %T, want MemCodes", src)
	}
	if src.NumRows() != b.NumRows() || src.NumCols() != b.NumCols() {
		t.Fatalf("inline source is %dx%d, binned is %dx%d", src.NumRows(), src.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < b.NumCols(); c++ {
		seen := 0
		for blk := 0; blk < src.NumBlocks(); blk++ {
			for i, code := range src.ColumnBlock(c, blk, nil) {
				r := blk*src.BlockRows() + i
				if code != codes[c][r] {
					t.Fatalf("col %d row %d: source %d, codes %d", c, r, code, codes[c][r])
				}
				if src.Code(c, r) != code {
					t.Fatalf("col %d row %d: Code disagrees with ColumnBlock", c, r)
				}
				seen++
			}
		}
		if seen != b.NumRows() {
			t.Fatalf("col %d blocks covered %d rows, want %d", c, seen, b.NumRows())
		}
	}
}

// TestStoreRoundTrip pins export → open → attach: every cell must read
// back identically through the store, and materialization must reproduce
// the original codes.
func TestStoreRoundTrip(t *testing.T) {
	b := testBinned(t)
	want, err := b.MaterializedCodes()
	if err != nil {
		t.Fatal(err)
	}
	s := storeFor(t, b, 64)
	if err := b.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if !b.Paged() || b.Source() != binning.CodeSource(s) {
		t.Fatalf("after attaching, the source is %T", b.Source())
	}
	for c := range want {
		for r := range want[c] {
			if got := b.Code(c, r); got != want[c][r] {
				t.Fatalf("store-backed Code(%d,%d) = %d, want %d", c, r, got, want[c][r])
			}
		}
	}
	mat, err := b.MaterializedCodes()
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		for r := range want[c] {
			if mat[c][r] != want[c][r] {
				t.Fatalf("materialized (%d,%d) = %d, want %d", c, r, mat[c][r], want[c][r])
			}
		}
	}
	// Items route through the store too.
	if got, wantItem := b.Item(1, 7), b.ItemOf(1, int(want[1][7])); got != wantItem {
		t.Fatalf("Item(1,7) = %d, want %d", got, wantItem)
	}
}

// TestAttachValidation pins the attach-time checks: wrong geometry —
// ragged MemCodes included — and out-of-range codes are rejected, and a
// rejected source leaves the binning on its codes.
func TestAttachValidation(t *testing.T) {
	b := testBinned(t)
	if err := b.AttachStore(nil); err == nil {
		t.Fatal("attach accepted a nil source")
	}
	codes, err := b.MaterializedCodes()
	if err != nil {
		t.Fatal(err)
	}
	ragged := append(binning.MemCodes(nil), codes...)
	ragged[1] = ragged[1][:b.NumRows()-1]
	if err := b.AttachStore(ragged); err == nil {
		t.Fatal("attach accepted ragged MemCodes")
	}
	other := func() *binning.Binned {
		ds := datagen.Generic(100, 5, 4, 3) // fewer rows
		ob, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return ob
	}()
	if err := b.AttachStore(storeFor(t, other, 32)); err == nil {
		t.Fatal("attach accepted a store with the wrong row count")
	}
	// A store whose codes exceed the column's bin count must be rejected:
	// synthesize one by writing inflated codes directly.
	path := filepath.Join(t.TempDir(), "bad.codes")
	codes = make([][]uint16, b.NumCols())
	for c := range codes {
		codes[c] = make([]uint16, b.NumRows())
		for r := range codes[c] {
			codes[c][r] = uint16(b.Cols[c].NumBins()) // one past the last bin
		}
	}
	if err := codestore.WriteFile(path, codes, 64); err != nil {
		t.Fatal(err)
	}
	s, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := b.AttachStore(s); err == nil {
		t.Fatal("attach accepted out-of-range codes")
	}
	if b.Paged() {
		t.Fatal("a rejected attach replaced the codes")
	}
}

// TestRestoreWithStore pins the modelio load path's constructor over a
// store: the restored binning reads its codes there.
func TestRestoreWithStore(t *testing.T) {
	b := testBinned(t)
	want, err := b.MaterializedCodes()
	if err != nil {
		t.Fatal(err)
	}
	s := storeFor(t, b, 128)
	nb, err := binning.Restore(b.T, b.Cols, s)
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Paged() {
		t.Fatal("Restore over a store produced resident codes")
	}
	if nb.NumItems() != b.NumItems() {
		t.Fatalf("restored item space %d, want %d", nb.NumItems(), b.NumItems())
	}
	for c := range want {
		for r := 0; r < len(want[c]); r += 17 {
			if nb.Code(c, r) != want[c][r] {
				t.Fatalf("restored Code(%d,%d) = %d, want %d", c, r, nb.Code(c, r), want[c][r])
			}
		}
	}
}
