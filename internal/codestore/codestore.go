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
// owns only what is typed: the "SUBTABCS"/"SUBTABCE" magics, no meta
// section, and the page encoding — every cell is its bin code as a
// little-endian u16.
package codestore

import (
	"encoding/binary"
	"fmt"

	"subtab/internal/blockfile"
)

// Version is the current store format version.
const Version uint16 = 1

// DefaultBlockRows is the default rows-per-block granularity: 64Ki rows
// keep a per-column block at 128KiB — big enough to amortize I/O, small
// enough that a full column scan needs only one block of scratch.
const DefaultBlockRows = 1 << 16

var format = blockfile.Format{
	Magic:     [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'C', 'S'},
	EndMagic:  [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'C', 'E'},
	Version:   Version,
	CellWidth: 2,
}

// ErrTruncated (a crashed or interrupted writer's leftover) and ErrCorrupt
// (any other structural damage) are blockfile's sentinels, re-exported so
// errors.Is against this package's names keeps working.
var (
	ErrTruncated = blockfile.ErrTruncated
	ErrCorrupt   = blockfile.ErrCorrupt
)

// Writer streams column codes into a store file. Rows are appended in
// chunks (AppendColumns) and flushed block by block; Close finalizes the
// index and footer. A writer that never reaches Close leaves a file Open
// rejects, so a crashed export cannot be mistaken for a complete store.
type Writer struct {
	*blockfile.Writer
	cols int
}

// Create starts a store file at path with the given column count and
// rows-per-block (<= 0 uses DefaultBlockRows). The file is truncated.
func Create(path string, cols, blockRows int) (*Writer, error) {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	w, err := blockfile.Create(path, format, cols, blockRows, nil)
	if err != nil {
		return nil, err
	}
	return &Writer{Writer: w, cols: cols}, nil
}

// AppendColumns appends one chunk of rows: chunk[c] holds the new codes of
// column c, and every column must contribute the same number of rows.
func (w *Writer) AppendColumns(chunk [][]uint16) error {
	if len(chunk) != w.cols {
		return w.Fail(fmt.Errorf("codestore: chunk has %d columns, store has %d", len(chunk), w.cols))
	}
	n := len(chunk[0])
	for c := 1; c < w.cols; c++ {
		if len(chunk[c]) != n {
			return w.Fail(fmt.Errorf("codestore: ragged chunk: column 0 has %d rows, column %d has %d", n, c, len(chunk[c])))
		}
	}
	return w.Append(n, func(c int, dst []byte, off, take int) []byte {
		for _, v := range chunk[c][off : off+take] {
			dst = binary.LittleEndian.AppendUint16(dst, v)
		}
		return dst
	})
}

// WriteFile writes a complete store from in-memory column codes in one
// call (all columns must share one length). blockRows <= 0 uses
// DefaultBlockRows. The file is written to a temp name and renamed into
// place, so a crash never leaves a plausible-looking partial store at path.
func WriteFile(path string, codes [][]uint16, blockRows int) error {
	return blockfile.WriteAtomic(path, func(tmp string) error {
		w, err := Create(tmp, len(codes), blockRows)
		if err != nil {
			return err
		}
		if err := w.AppendColumns(codes); err != nil {
			w.Abort()
			return err
		}
		return w.Close()
	})
}

// Store is an open, read-only code store: a blockfile.File (geometry, Path,
// Checksum, Mapped, Verify, Close and the GC cleanup) plus the typed
// accessors below. All methods are safe for concurrent use.
type Store struct {
	*blockfile.File
}

// Open opens the store at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. It validates
// the header, the exact file length, the footer checksum and the end
// magic; a crashed writer's leftover fails here with ErrTruncated.
func Open(path string) (*Store, error) {
	f, err := blockfile.Open(path, format, nil)
	if err != nil {
		return nil, err
	}
	return &Store{f}, nil
}

// ColumnBlock decodes column c's codes for block blk into scratch
// (grown as needed) and returns the decoded slice. Concurrent callers
// must pass distinct scratch.
func (s *Store) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	raw, err := s.Page(c, blk, nil)
	if err != nil {
		panic(fmt.Sprintf("codestore: %v", err))
	}
	n := len(raw) / 2
	if cap(scratch) < n {
		scratch = make([]uint16, n)
	}
	scratch = scratch[:n]
	for i := range scratch {
		scratch[i] = binary.LittleEndian.Uint16(raw[i*2:])
	}
	return scratch
}

// GatherCodes sets dst[i] to the code of cell (c, rows[i]) without
// decoding any block whole: on the mmap path each code is a two-byte load
// from its block's page in place, and on the fallback path each page a run
// of rows lands in is read once into scratch, so ascending rows read every
// page at most once. Any order and repeats are allowed; a page that cannot
// be read panics, as in ColumnBlock.
func (s *Store) GatherCodes(c int, rows []int, dst []uint16) {
	dst = dst[:len(rows)]
	br := s.BlockRows()
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
			hi = lo + len(p)/2
		}
		dst[i] = binary.LittleEndian.Uint16(page[(r-lo)*2:])
	}
}

// Code returns the code of one cell (random access). On the mmap path this
// is a two-byte load; on the fallback path a two-byte pread.
func (s *Store) Code(c, r int) uint16 {
	blk := r / s.BlockRows()
	off := s.Off(c, blk) + int64(r-blk*s.BlockRows())*2
	if s.Data != nil {
		return binary.LittleEndian.Uint16(s.Data[off:])
	}
	var b [2]byte
	if err := s.ReadAt(b[:], off); err != nil {
		panic(fmt.Sprintf("codestore: reading cell (%d,%d) of %s: %v", c, r, s.Path(), err))
	}
	return binary.LittleEndian.Uint16(b[:])
}
