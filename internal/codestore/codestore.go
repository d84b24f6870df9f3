// Package codestore persists per-column bin codes in a chunked on-disk
// format, so the selection pipeline can run over tables whose binned
// representation does not fit in memory. It is the disk half of the
// out-of-core selection path: the stratified min-hash sampler streams
// column blocks out of a store, and only the sampled rows' tuple-vectors
// are ever materialized.
//
// The file framing — header, block-major pages, per-page CRC index, footer,
// crash and corruption detection, the mmap-or-ReadAt reader — is
// internal/blockfile's; see its package comment for the layout. This package
// owns only what is typed: the "SUBTABCS"/"SUBTABCE" magics and
//
//	meta:    one byte per column: its cell width in bits, the smallest
//	         power of two that holds the column's codes (1 bit up to 2
//	         bins, 2 up to 4, 4 up to 16, 8 up to 256, else 16)
//	pages:   each cell is its bin code as an unsigned integer of its
//	         column's width, packed as blockfile packs sub-byte cells
//
// Open reads version 3 only; a store of any other version fails with
// ErrVersion. CreateIn streams a store image into a larger file and OpenIn
// opens one in place: a model file (package modelio) holds its table's
// codes so.
package codestore

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"subtab/internal/blockfile"
)

// Version is the store format version Create writes and the only one Open
// reads.
const Version uint16 = 3

// DefaultBlockRows is the default rows-per-block granularity: 64Ki rows
// keep a per-column block at 64KiB of 1-byte codes — big enough to
// amortize I/O, small enough that a full column scan needs only one block
// of scratch.
const DefaultBlockRows = 1 << 16

var format = blockfile.Format{
	Magic:    [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'C', 'S'},
	EndMagic: [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'C', 'E'},
	Version:  Version,
}

// codeBits returns the cell width in bits of a column with the given bin
// count: the smallest of 1, 2, 4, 8 and 16 bits that holds every code.
func codeBits(bins int) int {
	for _, bits := range []int{1, 2, 4, 8} {
		if bins <= 1<<bits {
			return bits
		}
	}
	return 16
}

// layout is the blockfile.Layout of this format: the meta section holds
// one width byte per column, in bits (1, 2, 4, 8 or 16).
func layout(cols int, meta []byte) ([]int, error) {
	if len(meta) != cols {
		return nil, fmt.Errorf("%w: meta section of %d bytes for %d columns", ErrCorrupt, len(meta), cols)
	}
	widths := make([]int, cols)
	for c, w := range meta {
		bits := int(w)
		if bits > 16 || !blockfile.ValidBits(bits) {
			return nil, fmt.Errorf("%w: column %d has code width byte %d", ErrCorrupt, c, w)
		}
		widths[c] = bits
	}
	return widths, nil
}

// ErrTruncated (a crashed or interrupted writer's leftover), ErrCorrupt
// (any other structural damage) and ErrVersion (a store in a retired
// version) are blockfile's sentinels, re-exported so errors.Is against this
// package's names keeps working.
var (
	ErrTruncated = blockfile.ErrTruncated
	ErrCorrupt   = blockfile.ErrCorrupt
	ErrVersion   = blockfile.ErrVersion
)

// Writer streams column codes into a store file. Rows are appended in
// chunks (AppendColumns) and flushed block by block; Close finalizes the
// index and footer. A writer that never reaches Close leaves a file Open
// rejects, so a crashed export cannot be mistaken for a complete store.
type Writer struct {
	*blockfile.Writer
	widths []int
}

// Create starts a store file at path of exactly rows rows, with one column
// per entry of bins (each column's bin count, which sets its code width)
// and the given rows-per-block (<= 0 uses DefaultBlockRows). The file is
// truncated.
func Create(path string, bins []int, rows, blockRows int) (*Writer, error) {
	return create(bins, blockRows, func(widths []int, blockRows int, meta []byte) (*blockfile.Writer, error) {
		return blockfile.Create(path, format, widths, rows, blockRows, meta)
	})
}

// CreateIn starts a store image of exactly rows rows that streams into dst
// (blockfile.CreateIn): its Size is known before any byte is written.
func CreateIn(dst io.Writer, bins []int, rows, blockRows int) (*Writer, error) {
	return create(bins, blockRows, func(widths []int, blockRows int, meta []byte) (*blockfile.Writer, error) {
		return blockfile.CreateIn(dst, format, widths, rows, blockRows, meta)
	})
}

// create derives the per-column widths and the meta section from bins and
// starts the blockfile writer open returns over them: a file's or an
// image's inside a larger file.
func create(bins []int, blockRows int, open func(widths []int, blockRows int, meta []byte) (*blockfile.Writer, error)) (*Writer, error) {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	meta := make([]byte, len(bins))
	widths := make([]int, len(bins))
	for c, nb := range bins {
		widths[c] = codeBits(nb)
		meta[c] = byte(widths[c])
	}
	w, err := open(widths, blockRows, meta)
	if err != nil {
		return nil, err
	}
	return &Writer{Writer: w, widths: widths}, nil
}

// AppendColumns appends one chunk of rows: chunk[c] holds the new codes of
// column c, and every column must contribute the same number of rows. A
// code wider than its column's cells fails the writer.
func (w *Writer) AppendColumns(chunk [][]uint16) error {
	if len(chunk) != len(w.widths) {
		return w.Fail(fmt.Errorf("codestore: chunk has %d columns, store has %d", len(chunk), len(w.widths)))
	}
	n := len(chunk[0])
	for c := 1; c < len(chunk); c++ {
		if len(chunk[c]) != n {
			return w.Fail(fmt.Errorf("codestore: ragged chunk: column 0 has %d rows, column %d has %d", n, c, len(chunk[c])))
		}
	}
	return w.Append(n, func(c int, dst []byte, off, take int) []byte {
		codes, bits := chunk[c][off:off+take], w.widths[c]
		dst = slices.Grow(dst, take*blockfile.CellBytes(bits))
		if bits == 16 {
			for _, v := range codes {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
			return dst
		}
		var seen uint16
		for _, v := range codes {
			dst = append(dst, byte(v))
			seen |= v
		}
		if seen>>bits != 0 {
			w.Fail(fmt.Errorf("codestore: column %d holds a code above %d in %d-bit cells", c, 1<<bits-1, bits))
		}
		return dst
	})
}

// WriteFile writes a complete store from in-memory column codes in one
// call (all columns must share one length), each column at the width its
// largest code needs. blockRows <= 0 uses DefaultBlockRows. The file is
// written to a temp name and renamed into place, so a crash never leaves a
// plausible-looking partial store at path.
func WriteFile(path string, codes [][]uint16, blockRows int) error {
	bins := make([]int, len(codes))
	rows := 0
	for c, col := range codes {
		if len(col) > 0 {
			bins[c] = int(slices.Max(col)) + 1
		}
		rows = len(col)
	}
	return blockfile.WriteAtomic(path, func(tmp string) error {
		w, err := Create(tmp, bins, rows, blockRows)
		if err != nil {
			return err
		}
		return w.appendAll(codes)
	})
}

// appendAll appends codes as one chunk and closes the writer, aborting it
// on failure.
func (w *Writer) appendAll(codes [][]uint16) error {
	if err := w.AppendColumns(codes); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// Store is an open, read-only code store: a blockfile.File (geometry, Path,
// Checksum, Mapped, Verify, Close and the GC cleanup) plus the typed
// accessors below. All methods are safe for concurrent use.
type Store struct {
	*blockfile.File
}

// Open opens the store at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. It validates
// the header, the per-column widths, the exact file length, the footer
// checksum and the end magic; a crashed writer's leftover fails here with
// ErrTruncated, and a store of a retired version with ErrVersion.
func Open(path string) (*Store, error) {
	f, err := blockfile.Open(path, format, layout)
	if err != nil {
		return nil, err
	}
	return &Store{f}, nil
}

// OpenIn opens the store image of size bytes at offset off inside r,
// validated as Open validates a file (blockfile.OpenIn).
func OpenIn(r *blockfile.Region, off, size int64) (*Store, error) {
	f, err := blockfile.OpenIn(r, off, size, format, layout)
	if err != nil {
		return nil, err
	}
	return &Store{f}, nil
}

// ColumnBlock decodes column c's codes for block blk into scratch
// (grown as needed) and returns the decoded slice: packed codes unpack
// there. Concurrent callers must pass distinct scratch.
func (s *Store) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	raw, err := s.Page(c, blk, nil)
	if err != nil {
		panic(fmt.Sprintf("codestore: %v", err))
	}
	n := s.BlockLen(blk)
	if cap(scratch) < n {
		scratch = make([]uint16, n)
	}
	scratch = scratch[:n]
	blockfile.Unpack(scratch, raw, s.CellBits(c))
	return scratch
}

// GatherCodes sets dst[i] to the code of cell (c, rows[i]) without
// decoding any block whole: on the mmap path each code is read in place
// from its block's page — a shift and a mask of the byte that holds a
// code of up to 8 bits, a two-byte load at 16 — and on the fallback path
// each page a run of rows lands in is read once into scratch, so ascending
// rows read every page at most once. Any order and repeats are allowed; a
// page that cannot be read panics, as in ColumnBlock.
func (s *Store) GatherCodes(c int, rows []int, dst []uint16) {
	dst = dst[:len(rows)]
	br, bits := s.BlockRows(), s.CellBits(c)
	mask := byte(1<<min(bits, 8) - 1)
	var page []byte
	lo, hi := 0, 0 // the global rows [lo, hi) that page holds
	for i, r := range rows {
		if r < lo || r >= hi {
			blk := r / br
			p, err := s.Page(c, blk, page)
			if err != nil {
				panic(fmt.Sprintf("codestore: %v", err))
			}
			page, lo = p, blk*br
			hi = lo + s.BlockLen(blk)
		}
		if bits == 16 {
			dst[i] = binary.LittleEndian.Uint16(page[(r-lo)*2:])
			continue
		}
		at := (r - lo) * bits
		dst[i] = uint16(page[at>>3] >> (at & 7) & mask)
	}
}

// Code returns the code of one cell (random access). On the mmap path this
// is an in-place load of the byte or two that hold it; on the fallback path
// a pread of as many.
func (s *Store) Code(c, r int) uint16 {
	v, err := s.Load(c, r)
	if err != nil {
		panic(fmt.Sprintf("codestore: %v", err))
	}
	return uint16(v)
}
