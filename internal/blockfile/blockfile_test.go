// The framing suite: everything that is true of a store file because of
// blockfile — block arithmetic, crash and corruption detection, the atomic
// writer, the two access paths — asserted once, table-driven over both
// Formats (each driven through the store package that declares it). What is
// true because of a page *encoding* is tested in codestore and colstore.
package blockfile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
)

// storeKind is one Format, reached through its store package.
type storeKind struct {
	name string
	stem string // golden files are testdata/stores/<stem>_[v2_|v3_]<rows>.<ext>
	// magic and version open a store of this kind in its header.
	magic   string
	version uint16
	// write writes a complete rows-row store (temp file + rename).
	write func(path string, rows, blockRows int) error
	// abandon appends rows to a fresh writer and returns without Close — a
	// crashed export. The returned func aborts the writer.
	abandon func(path string, rows, blockRows int) (abort func(), err error)
	// open opens the store and returns its framing.
	open func(path string) (*blockfile.File, error)
	// read opens the store — the file at path, or data in memory when path
	// is "" — verifies it and reads every typed value through every typed
	// accessor, rendering them into text unless it is nil. It returns the
	// store's footer checksum.
	read func(path string, data []byte, text *strings.Builder) (uint32, error)
}

// openStore opens a store through its package: Open(path), or, when path
// is "", OpenIn over data held in memory between a prefix and a suffix —
// the store as an image inside a larger file.
func openStore[S any](open func(string) (S, error), openIn func(*blockfile.Region, int64, int64) (S, error), path string, data []byte) (S, error) {
	if path == "" {
		file := slices.Concat([]byte("prefix"), data, []byte("suffix"))
		return openIn(blockfile.BytesRegion(file), int64(len("prefix")), int64(len(data)))
	}
	return open(path)
}

var storeKinds = []storeKind{
	{
		name:    "codestore",
		stem:    "codes",
		magic:   "SUBTABCS",
		version: codestore.Version,
		write: func(path string, rows, blockRows int) error {
			return codestore.WriteFile(path, goldenPackedCodes(rows), blockRows)
		},
		abandon: func(path string, rows, blockRows int) (func(), error) {
			w, err := codestore.Create(path, goldenBins, rows, blockRows)
			if err != nil {
				return nil, err
			}
			return w.Abort, w.AppendColumns(goldenPackedCodes(rows))
		},
		open: func(path string) (*blockfile.File, error) {
			s, err := codestore.Open(path)
			if err != nil {
				return nil, err
			}
			return s.File, nil
		},
		read: func(path string, data []byte, text *strings.Builder) (uint32, error) {
			s, err := openStore(codestore.Open, codestore.OpenIn, path, data)
			if err != nil {
				return 0, err
			}
			defer s.Close()
			if err := s.Verify(); err != nil {
				return 0, err
			}
			var scratch []uint16
			for c := 0; c < s.NumCols(); c++ {
				for blk := 0; blk < s.NumBlocks(); blk++ {
					scratch = s.ColumnBlock(c, blk, scratch)
					if text != nil {
						fmt.Fprintln(text, "block", c, blk, scratch)
					}
				}
				for r := 0; r < s.NumRows(); r++ {
					if code := s.Code(c, r); text != nil {
						fmt.Fprintln(text, "code", c, r, code)
					}
				}
			}
			return s.Checksum(), nil
		},
	},
	{
		name:    "colstore",
		stem:    "cells",
		magic:   "SUBTABPC",
		version: colstore.Version,
		write: func(path string, rows, blockRows int) error {
			return colstore.WriteTable(path, goldenPackedTable(rows), blockRows)
		},
		abandon: func(path string, rows, blockRows int) (func(), error) {
			w, err := colstore.Create(path, goldenPackedTable(rows), 0, rows, blockRows)
			if err != nil {
				return nil, err
			}
			return w.Abort, w.AppendRows(0, rows)
		},
		open: func(path string) (*blockfile.File, error) {
			s, err := colstore.Open(path)
			if err != nil {
				return nil, err
			}
			return s.File, nil
		},
		read: func(path string, data []byte, text *strings.Builder) (uint32, error) {
			s, err := openStore(colstore.Open, colstore.OpenIn, path, data)
			if err != nil {
				return 0, err
			}
			defer s.Close()
			if err := s.Verify(); err != nil {
				return 0, err
			}
			for c := 0; c < s.NumCols(); c++ {
				for r := 0; r < s.NumRows(); r++ {
					cell, err := s.Cell(c, r)
					if err != nil {
						return 0, err
					}
					if text != nil {
						fmt.Fprintln(text, "cell", c, r, cell)
					}
				}
			}
			mat, err := s.MaterializeTable("t")
			if err != nil {
				return 0, err
			}
			if text != nil {
				text.WriteString(mat.Render(nil))
			}
			return s.Checksum(), nil
		},
	},
}

// retired reports whether raw has a whole header of a store of kind k in a
// version other than the current one, which Open must refuse with
// ErrVersion.
func (k storeKind) retired(raw []byte) bool {
	return len(raw) >= blockfile.HeaderSize && string(raw[:8]) == k.magic && binary.LittleEndian.Uint16(raw[8:]) != k.version
}

// eachKind runs fn as one subtest per Format.
func eachKind(t *testing.T, fn func(t *testing.T, k storeKind)) {
	for _, k := range storeKinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// bothPaths runs fn once per access path: the platform default (mmap on
// unix) and the ReadAt fallback.
func bothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run("mmap", fn)
	t.Run("readat", func(t *testing.T) {
		blockfile.NoMmap(t)
		fn(t)
	})
}

// writeStore writes a rows-row store of kind k into a fresh temp dir and
// returns its path and bytes.
func writeStore(t *testing.T, k storeKind, rows, blockRows int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.store")
	if err := k.write(path, rows, blockRows); err != nil {
		t.Fatalf("write %d rows: %v", rows, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// sections returns where the data section and the page index start in a
// complete store file's bytes.
func sections(t *testing.T, k storeKind, path string, raw []byte) (dataStart, indexStart int) {
	t.Helper()
	f, err := k.open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dataStart = blockfile.HeaderSize + 4 + int(binary.LittleEndian.Uint32(raw[blockfile.HeaderSize:]))
	return dataStart, len(raw) - 12 - 4*f.NumBlocks()*f.NumCols()
}

func wantStoreError(t *testing.T, what string, err error, sentinels ...error) {
	t.Helper()
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("%s: got %v, want one of %v", what, err, sentinels)
}

// TestBlockGeometry sweeps row counts around the block size — the edge cases
// of block arithmetic: the empty store, a single row, one block exactly, one
// row past it, multiples, a final short block — on both access paths. The
// pages must tile the data section exactly, in block-major order.
func TestBlockGeometry(t *testing.T) {
	const blockRows = 64
	eachKind(t, func(t *testing.T, k storeKind) {
		bothPaths(t, func(t *testing.T) {
			for _, n := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 2 * blockRows, 2*blockRows + 17, 5 * blockRows} {
				path, raw := writeStore(t, k, n, blockRows)
				dataStart, indexStart := sections(t, k, path, raw)
				f, err := k.open(path)
				if err != nil {
					t.Fatalf("n=%d: open: %v", n, err)
				}
				if f.NumRows() != n || f.BlockRows() != blockRows || f.NumBlocks() != (n+blockRows-1)/blockRows {
					t.Fatalf("n=%d: store has %d rows in %d blocks of %d", n, f.NumRows(), f.NumBlocks(), f.BlockRows())
				}
				if f.Path() != path || f.Checksum() != binary.LittleEndian.Uint32(raw[len(raw)-12:]) {
					t.Fatalf("n=%d: identity is (%s, %08x)", n, f.Path(), f.Checksum())
				}
				next, rows := int64(dataStart), 0
				for blk := 0; blk < f.NumBlocks(); blk++ {
					if l := f.BlockLen(blk); l <= 0 || l > blockRows || (blk < f.NumBlocks()-1 && l != blockRows) {
						t.Fatalf("n=%d: block %d holds %d rows", n, blk, l)
					}
					rows += f.BlockLen(blk)
					for c := 0; c < f.NumCols(); c++ {
						if off := f.Off(c, blk); off != next {
							t.Fatalf("n=%d: page (%d,%d) at offset %d, previous page ended at %d", n, c, blk, off, next)
						}
						page, err := f.Page(c, blk, nil)
						if err != nil {
							t.Fatalf("n=%d: page (%d,%d): %v", n, c, blk, err)
						}
						if !bytes.Equal(page, raw[next:next+int64(len(page))]) {
							t.Fatalf("n=%d: page (%d,%d) is not the file's bytes at its offset", n, c, blk)
						}
						next += int64(len(page))
					}
				}
				if rows != n || next != int64(indexStart) {
					t.Fatalf("n=%d: blocks cover %d rows and end at %d, index starts at %d", n, rows, next, indexStart)
				}
				if err := f.Verify(); err != nil {
					t.Fatalf("n=%d: Verify: %v", n, err)
				}
				f.Close()
			}
		})
	})
}

// TestReopenAfterCrash simulates a crashed writer: every truncation length
// of a complete store must be rejected at Open (the index and footer are
// written last, so a partial file can never look complete), and so must a
// writer that never reached Close.
func TestReopenAfterCrash(t *testing.T) {
	eachKind(t, func(t *testing.T, k storeKind) {
		_, full := writeStore(t, k, 100, 16)
		trunc := filepath.Join(t.TempDir(), "t.store")
		for cut := 0; cut < len(full); cut++ {
			if err := os.WriteFile(trunc, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := k.open(trunc)
			if err == nil {
				f.Close()
				t.Fatalf("Open accepted a store truncated to %d of %d bytes", cut, len(full))
			}
			wantStoreError(t, fmt.Sprintf("truncation to %d bytes", cut), err, blockfile.ErrTruncated, blockfile.ErrCorrupt)
		}
		abandoned := filepath.Join(t.TempDir(), "a.store")
		abort, err := k.abandon(abandoned, 100, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, err = k.open(abandoned)
		wantStoreError(t, "unfinalized store", err, blockfile.ErrTruncated)
		abort()
		if _, err := os.Stat(abandoned); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Abort left the partial file behind (stat: %v)", err)
		}
	})
}

// TestPerPageChecksum flips one bit at every byte of a store: inside the
// data section Open still succeeds (geometry and footer are intact) and
// Verify names the damage; in the version field Open refuses a version it
// does not read; anywhere else — header, meta, page index, footer — the
// footer checksum or the end magic fails Open outright.
func TestPerPageChecksum(t *testing.T) {
	eachKind(t, func(t *testing.T, k storeKind) {
		bothPaths(t, func(t *testing.T) {
			path, full := writeStore(t, k, 40, 16)
			dataStart, indexStart := sections(t, k, path, full)
			flipped := filepath.Join(t.TempDir(), "f.store")
			for pos := range full {
				damaged := bytes.Clone(full)
				damaged[pos] ^= 0x04
				if err := os.WriteFile(flipped, damaged, 0o644); err != nil {
					t.Fatal(err)
				}
				f, err := k.open(flipped)
				switch {
				case pos >= dataStart && pos < indexStart:
					if err != nil {
						t.Fatalf("flip at data byte %d: Open should defer page validation to Verify, got %v", pos, err)
					}
					wantStoreError(t, fmt.Sprintf("Verify after a flip at data byte %d", pos), f.Verify(), blockfile.ErrCorrupt)
					f.Close()
				case pos >= len(full)-8:
					wantStoreError(t, fmt.Sprintf("flip at end-magic byte %d", pos), err, blockfile.ErrTruncated)
				case pos >= indexStart:
					wantStoreError(t, fmt.Sprintf("flip at index/footer byte %d", pos), err, blockfile.ErrCorrupt)
				case pos == 8 || pos == 9:
					wantStoreError(t, fmt.Sprintf("flip at version byte %d", pos), err, blockfile.ErrVersion)
				default:
					wantStoreError(t, fmt.Sprintf("flip at header/meta byte %d", pos), err, blockfile.ErrCorrupt, blockfile.ErrTruncated)
				}
			}
		})
	})
}

// TestMappedEqualsUnmapped reads one store through both access paths and
// requires identical results from Page, Verify and every typed accessor
// (ColumnBlock, Code; Cell, MaterializeTable).
func TestMappedEqualsUnmapped(t *testing.T) {
	eachKind(t, func(t *testing.T, k storeKind) {
		path, _ := writeStore(t, k, 40, 16)
		var typed [2]strings.Builder
		var pages [2][]byte
		for i, mapped := range []bool{true, false} {
			t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
				if !mapped {
					blockfile.NoMmap(t)
				}
				f, err := k.open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if runtime.GOOS == "linux" && f.Mapped() != mapped {
					t.Fatalf("Mapped() = %v, want %v", f.Mapped(), mapped)
				}
				for blk := 0; blk < f.NumBlocks(); blk++ {
					for c := 0; c < f.NumCols(); c++ {
						page, err := f.Page(c, blk, nil)
						if err != nil {
							t.Fatal(err)
						}
						pages[i] = append(pages[i], page...)
					}
				}
				if _, err := k.read(path, nil, &typed[i]); err != nil {
					t.Fatal(err)
				}
			})
		}
		if typed[0].Len() == 0 || typed[0].String() != typed[1].String() {
			t.Fatalf("typed reads differ between the access paths:\nmapped:\n%s\nunmapped:\n%s", &typed[0], &typed[1])
		}
		if len(pages[0]) == 0 || !bytes.Equal(pages[0], pages[1]) {
			t.Fatal("Page bytes differ between the access paths")
		}
	})
}

// reseal recomputes the footer checksum of a zero-row store (no data
// section, so the checksum covers every byte before it): tests patch header
// fields of a valid empty store and still get past the footer check.
func reseal(raw []byte) []byte {
	out := bytes.Clone(raw)
	if len(out) >= 12 {
		crc := crc32.Checksum(out[:len(out)-12], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(out[len(out)-12:], crc)
	}
	return out
}

// allocatedBy returns the bytes fn allocates (cumulative, not live).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCraftedGeometryCostsNothing is the regression test for two headers
// that are well-formed but describe nothing real, crafted from a fresh
// empty store: blockRows = 2^31-1 over zero rows (codestore.Verify used to
// size its scratch from blockRows and allocate 4GiB for this 38-byte file),
// which opens, and 2^24 columns over zero rows, which the meta section
// cannot describe — damage. Neither may cost more than the file is worth.
func TestCraftedGeometryCostsNothing(t *testing.T) {
	eachKind(t, func(t *testing.T, k storeKind) {
		bothPaths(t, func(t *testing.T) {
			_, empty := writeStore(t, k, 0, 16)
			crafted := filepath.Join(t.TempDir(), "c.store")
			huge := bytes.Clone(empty)
			binary.LittleEndian.PutUint32(huge[22:], 0x7FFFFFFF) // blockRows
			if err := os.WriteFile(crafted, reseal(huge), 0o644); err != nil {
				t.Fatal(err)
			}
			if n := allocatedBy(func() {
				f, err := k.open(crafted)
				if err != nil {
					t.Fatalf("Open rejected blockRows = 2^31-1 over zero rows: %v", err)
				}
				defer f.Close()
				if err := f.Verify(); err != nil {
					t.Fatalf("Verify: %v", err)
				}
			}); n > 1<<20 {
				t.Fatalf("opening and verifying a %d-byte file allocated %d bytes", len(huge), n)
			}

			wide := bytes.Clone(empty)
			binary.LittleEndian.PutUint32(wide[10:], 1<<24) // cols
			if err := os.WriteFile(crafted, reseal(wide), 0o644); err != nil {
				t.Fatal(err)
			}
			if n := allocatedBy(func() {
				_, err := k.open(crafted)
				wantStoreError(t, "2^24 columns over a small meta section", err, blockfile.ErrCorrupt)
			}); n > 1<<20 {
				t.Fatalf("opening a %d-byte file allocated %d bytes", len(wide), n)
			}
		})
	})
}

// TestWriteAtomic pins the write-to-temp-then-rename helper: nothing but the
// target is left behind on success, and on every failure — the write itself,
// or the rename — the temp file is removed and an existing target survives.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	put := func(content string) func(string) error {
		return func(tmp string) error { return os.WriteFile(tmp, []byte(content), 0o644) }
	}
	onlyEntry := func(what, want string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != want {
			t.Fatalf("%s: directory holds %v, want only %q", what, entries, want)
		}
	}
	if err := blockfile.WriteAtomic(path, put("one")); err != nil {
		t.Fatal(err)
	}
	onlyEntry("after a successful write", "target")

	boom := errors.New("boom")
	err := blockfile.WriteAtomic(path, func(tmp string) error {
		if err := put("partial")(tmp); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write: got %v, want the write's error", err)
	}
	onlyEntry("after a failed write", "target")
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("a failed write clobbered the target: %q", got)
	}

	// Rename onto a non-empty directory fails after the temp file is complete.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := blockfile.WriteAtomic(path, put("two")); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	onlyEntry("after a failed rename", "target")

	// A parent that is a regular file fails the write itself.
	file := filepath.Join(dir, "target", "occupied", "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := blockfile.WriteAtomic(filepath.Join(file, "child"), put("three")); err == nil {
		t.Fatal("write under a regular file succeeded")
	}
}

// TestCodestoreGatherCodes checks codestore's GatherCodes against Code on
// both access paths — the in-place page loads of the mmap path and the
// per-page reads of the ReadAt fallback — over sorted, unsorted, repeated,
// block-straddling and empty row lists.
func TestCodestoreGatherCodes(t *testing.T) {
	const rows, blockRows = 300, 16
	codes := make([][]uint16, 3)
	for c := range codes {
		codes[c] = make([]uint16, rows)
		for r := range codes[c] {
			codes[c][r] = uint16((r*7919 + c*104729) % 65521)
		}
	}
	path := filepath.Join(t.TempDir(), "g.codes")
	if err := codestore.WriteFile(path, codes, blockRows); err != nil {
		t.Fatal(err)
	}
	lists := [][]int{
		{},
		{0, 1, 2, 15, 16, 17, 31, 32, 299},       // sorted, straddling block edges
		{299, 0, 150, 16, 15, 288, 287, 1},       // unsorted, across blocks
		{5, 5, 5, 200, 5, 200, 299, 299, 0, 0},   // repeats
		{14, 15, 16, 17, 30, 31, 32, 33, 46, 47}, // runs across edges
	}
	bothPaths(t, func(t *testing.T) {
		st, err := codestore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for _, rs := range lists {
			for c := range codes {
				dst := make([]uint16, len(rs))
				st.GatherCodes(c, rs, dst)
				for i, r := range rs {
					if dst[i] != st.Code(c, r) || dst[i] != codes[c][r] {
						t.Fatalf("mapped=%v col %d rows %v: dst[%d] = %d, Code = %d, want %d",
							st.Mapped(), c, rs, i, dst[i], st.Code(c, r), codes[c][r])
					}
				}
			}
		}
	})
}
