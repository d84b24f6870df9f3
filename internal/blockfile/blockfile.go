// Package blockfile is the one on-disk framing under SubTab's paged stores:
// internal/codestore (bin codes) and internal/colstore (raw displayed cells)
// differ only in their magic, their optional meta section and how a cell is
// encoded. Everything else — the layout, the streaming writer, the validating
// reader, the checksums and the mmap-or-ReadAt access path — lives here once.
//
// Layout (little-endian):
//
//	header:  8-byte magic · u16 version · u32 cols · u64 rows · u32 blockRows
//	meta:    (formats with a meta section) u32 metaLen, then metaLen bytes
//	         the store package owns — colstore keeps its schema there
//	data:    block-major: for each block b, for each column c, one page: the
//	         cells of rows [b*blockRows, min((b+1)*blockRows, rows)) at the
//	         column's fixed cell width — block-major so a writer can stream
//	         row chunks without knowing the final row count up front
//	index:   one u32 CRC-32C per (block, column) page, in data order
//	footer:  u32 CRC-32C over header+meta+index · 8-byte end magic
//
// Every offset is computable from the header and the cell widths, so Open is
// O(1) in the data size: it reads header, meta and tail and validates the
// magic, the geometry, the exact file length, the footer checksum (which
// covers the page index) and the end magic. A crash mid-write leaves a file
// whose length cannot match its header (index and footer are written last),
// which Open reports as ErrTruncated; silent bit rot inside a page is caught
// by Verify against the per-page checksums.
//
// Readers are safe for concurrent use: the file is memory-mapped where the
// platform supports it and read with pread-style ReadAt elsewhere, and both
// access paths are stateless apart from caller-owned scratch.
package blockfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
)

// Format identifies one kind of store file. The two stores each declare one
// package-level Format; it is not something a caller configures.
type Format struct {
	Magic, EndMagic [8]byte
	Version         uint16
	// Meta reports whether a length-prefixed meta section follows the header.
	Meta bool
	// CellWidth is the byte width of every column's cells. Zero means the
	// widths differ per column and are derived from the meta section by the
	// Layout passed to Open. A uniform format keeps no per-column tables, so
	// a header claiming 2^24 columns costs Open no allocation.
	CellWidth int
}

// Sentinel errors. The store packages re-export these same values.
var (
	// ErrTruncated marks a store whose file length does not match its
	// header — the signature of a crashed or interrupted writer.
	ErrTruncated = errors.New("blockfile: truncated store file")
	// ErrCorrupt marks structural damage other than truncation (bad magic,
	// checksum mismatch, impossible geometry).
	ErrCorrupt = errors.New("blockfile: corrupt store file")
)

const (
	headerSize = 8 + 2 + 4 + 8 + 4 // magic + version + cols + rows + blockRows
	rowsOff    = 8 + 2 + 4         // offset of the row count inside the header
	// maxCellWidth bounds a Layout's widths; with the geometry caps in Open
	// it keeps every size computation inside int64.
	maxCellWidth = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer streams rows into a store file. Rows are appended in chunks and
// flushed block by block; Close finalizes the index and footer. A writer
// that never reaches Close leaves a file Open rejects, so a crashed export
// cannot be mistaken for a complete store.
type Writer struct {
	f         *os.File
	ft        Format
	blockRows int
	rows      uint64
	head      []byte   // header + meta section: what the footer CRC covers besides the index
	buf       [][]byte // per-column pending page bytes (< blockRows rows)
	bufRows   int
	crcs      []uint32
	err       error
}

// Create starts a store file of cols columns at path; meta is the meta
// section's payload (ignored by formats without one). The file is truncated.
func Create(path string, ft Format, cols, blockRows int, meta []byte) (*Writer, error) {
	if cols <= 0 || blockRows <= 0 {
		return nil, fmt.Errorf("blockfile: create: impossible geometry (%d cols, %d rows/block)", cols, blockRows)
	}
	head := make([]byte, 0, headerSize+4+len(meta))
	head = append(head, ft.Magic[:]...)
	head = binary.LittleEndian.AppendUint16(head, ft.Version)
	head = binary.LittleEndian.AppendUint32(head, uint32(cols))
	head = binary.LittleEndian.AppendUint64(head, 0) // row count, patched on Close
	head = binary.LittleEndian.AppendUint32(head, uint32(blockRows))
	if ft.Meta {
		head = binary.LittleEndian.AppendUint32(head, uint32(len(meta)))
		head = append(head, meta...)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// The header is rewritten with the final row count on Close; writing a
	// placeholder now keeps the data section at a fixed offset.
	if _, err := f.Write(head); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &Writer{f: f, ft: ft, blockRows: blockRows, head: head, buf: make([][]byte, cols)}, nil
}

// Append adds n rows. For each run of rows that fits the current block it
// calls encode once per column: encode(c, dst, off, take) appends column c's
// cells for rows [off, off+take) of the chunk to dst and returns it.
func (w *Writer) Append(n int, encode func(c int, dst []byte, off, take int) []byte) error {
	if w.err != nil {
		return w.err
	}
	for off := 0; off < n; {
		take := min(w.blockRows-w.bufRows, n-off)
		for c := range w.buf {
			w.buf[c] = encode(c, w.buf[c], off, take)
		}
		w.bufRows += take
		off += take
		if w.bufRows == w.blockRows {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	w.rows += uint64(n)
	return nil
}

// flushBlock writes the buffered rows of every column as one block.
func (w *Writer) flushBlock() error {
	for c := range w.buf {
		w.crcs = append(w.crcs, crc32.Checksum(w.buf[c], crcTable))
		if _, err := w.f.Write(w.buf[c]); err != nil {
			return w.Fail(err)
		}
		w.buf[c] = w.buf[c][:0]
	}
	w.bufRows = 0
	return nil
}

// Fail poisons the writer: every later Append and Close returns the first
// error recorded, so a caller that drops an error cannot finalize the file.
func (w *Writer) Fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Close flushes the final (possibly short) block, writes the page index,
// rewrites the header with the final row count, writes the footer checksum
// and the end magic, and syncs the file.
func (w *Writer) Close() error {
	return errors.Join(w.finish(), w.f.Close())
}

func (w *Writer) finish() error {
	if w.err != nil {
		return w.err
	}
	if w.bufRows > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	index := make([]byte, 0, 4*len(w.crcs))
	for _, crc := range w.crcs {
		index = binary.LittleEndian.AppendUint32(index, crc)
	}
	if _, err := w.f.Write(index); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(w.head[rowsOff:], w.rows)
	if _, err := w.f.WriteAt(w.head[:headerSize], 0); err != nil {
		return err
	}
	// The footer checksum covers header + meta + index, so a store whose
	// geometry, meta or index was damaged after the fact fails Open even at
	// the right size.
	h := crc32.New(crcTable)
	h.Write(w.head)
	h.Write(index)
	foot := binary.LittleEndian.AppendUint32(nil, h.Sum32())
	foot = append(foot, w.ft.EndMagic[:]...)
	if _, err := w.f.Write(foot); err != nil {
		return err
	}
	return w.f.Sync()
}

// Abort discards the writer and removes the partial file.
func (w *Writer) Abort() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// WriteAtomic runs write against path+".tmp" and renames the result into
// place, so a crash never leaves a plausible-looking partial file at path.
// The temp file is removed on every failure, a failed rename included.
func WriteAtomic(path string, write func(tmp string) error) error {
	tmp := path + ".tmp"
	err := write(tmp)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Layout derives the per-column cell widths of a Format without a uniform
// CellWidth from the column count and the meta section. It runs before the
// file length is validated, so it must bound its own allocations by
// len(meta), not by cols.
type Layout func(cols int, meta []byte) (widths []int, err error)

// File is an open, read-only store file. All methods are safe for
// concurrent use. Close releases the mapping/file handle; files that are
// garbage-collected without Close release their resources via a runtime
// cleanup, so an evicted model cannot leak a mapping forever.
type File struct {
	// Data is the whole file when it is memory-mapped and nil on the ReadAt
	// path. The typed accessors of the store packages index it directly.
	Data []byte

	path      string
	rows      int
	cols      int
	blockRows int
	nBlocks   int
	width     int64   // uniform cell width; 0 = per column
	starts    []int64 // starts[c] = summed widths of columns [0, c), cols+1 entries (nil when uniform)
	blockSize int64   // bytes of one full block: blockRows × the summed widths
	dataStart int64
	crcs      []uint32
	checksum  uint32   // footer CRC: the store's identity for external refs
	src       *os.File // what ReadAt reads when the file is not mapped
	cleanup   runtime.Cleanup
}

// region names a File's OS resources (mapping or file handle) so the runtime
// cleanup can release them without referencing the File itself.
type region struct {
	data []byte   // non-nil when memory-mapped
	f    *os.File // non-nil when reading through the file
}

func (r region) release() {
	if r.data != nil {
		munmap(r.data)
	}
	if r.f != nil {
		r.f.Close()
	}
}

// mapFile is mmapFile everywhere outside this package's tests, which swap
// in a failing stub to run the reader suite over the ReadAt path that every
// non-unix build takes.
var mapFile = mmapFile

// Open opens the store file at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. layout is
// required by (and only used for) formats without a uniform CellWidth.
func Open(path string, ft Format, layout Layout) (_ *File, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	headLen := int64(headerSize)
	if ft.Meta {
		headLen += 4
	}
	if size < headLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, size, headLen)
	}
	head := make([]byte, headLen)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if [8]byte(head[:8]) != ft.Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(head[8:]); v != ft.Version {
		return nil, fmt.Errorf("%w: store version %d, this build reads version %d", ErrCorrupt, v, ft.Version)
	}
	cols := int(binary.LittleEndian.Uint32(head[10:]))
	rows64 := binary.LittleEndian.Uint64(head[rowsOff:])
	blockRows := int(binary.LittleEndian.Uint32(head[22:]))
	// Geometry caps double as overflow guards: with cols <= 2^24, rows <=
	// 2^40, rows×cols <= 2^59 and cells of at most 8 bytes, every size
	// computation below stays inside int64, so a crafted header cannot wrap
	// the expected size around to match a small file.
	if cols <= 0 || cols > 1<<24 || blockRows <= 0 || rows64 > 1<<40 ||
		(rows64 > 0 && uint64(cols) > (1<<59)/rows64) {
		return nil, fmt.Errorf("%w: impossible geometry (%d cols, %d rows, %d rows/block)", ErrCorrupt, cols, rows64, blockRows)
	}
	if ft.Meta {
		metaLen := int64(binary.LittleEndian.Uint32(head[headerSize:]))
		if metaLen > size-headLen {
			return nil, fmt.Errorf("%w: meta section claims %d bytes past the file end", ErrTruncated, metaLen)
		}
		head = append(head, make([]byte, metaLen)...)
		if _, err := f.ReadAt(head[headLen:], headLen); err != nil {
			return nil, err
		}
	}
	file := &File{
		path: path, rows: int(rows64), cols: cols, blockRows: blockRows,
		width: int64(ft.CellWidth), dataStart: int64(len(head)),
	}
	rowWidth := int64(cols) * file.width
	if ft.CellWidth == 0 {
		widths, err := layout(cols, head[headLen:])
		if err != nil {
			return nil, err
		}
		if len(widths) != cols {
			return nil, fmt.Errorf("%w: meta section describes %d columns, header says %d", ErrCorrupt, len(widths), cols)
		}
		file.starts = make([]int64, cols+1)
		for c, w := range widths {
			if w <= 0 || w > maxCellWidth {
				return nil, fmt.Errorf("%w: column %d has cell width %d", ErrCorrupt, c, w)
			}
			file.starts[c+1] = file.starts[c] + int64(w)
		}
		rowWidth = file.starts[cols]
	}
	file.blockSize = int64(blockRows) * rowWidth
	if file.rows > 0 {
		file.nBlocks = (file.rows + blockRows - 1) / blockRows
	}
	dataSize := int64(file.rows) * rowWidth
	indexSize := int64(file.nBlocks) * int64(cols) * 4
	want := file.dataStart + dataSize + indexSize + 4 + 8
	if size != want {
		return nil, fmt.Errorf("%w: %d bytes on disk, a %dx%d store needs %d (crashed writer?)", ErrTruncated, size, file.rows, cols, want)
	}
	tail := make([]byte, indexSize+4+8)
	if _, err := f.ReadAt(tail, file.dataStart+dataSize); err != nil {
		return nil, err
	}
	if [8]byte(tail[len(tail)-8:]) != ft.EndMagic {
		return nil, fmt.Errorf("%w: missing end magic (crashed writer?)", ErrTruncated)
	}
	h := crc32.New(crcTable)
	h.Write(head)
	h.Write(tail[:indexSize])
	file.checksum = binary.LittleEndian.Uint32(tail[indexSize:])
	if h.Sum32() != file.checksum {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	file.crcs = make([]uint32, file.nBlocks*cols)
	for i := range file.crcs {
		file.crcs[i] = binary.LittleEndian.Uint32(tail[i*4:])
	}
	if data, err := mapFile(f, size); err == nil {
		file.Data = data
		f.Close()
	} else {
		file.src = f
	}
	file.cleanup = runtime.AddCleanup(file, region.release, region{file.Data, file.src})
	return file, nil
}

// Close releases the mapping/file handle. Further reads fail or panic;
// Close is not safe to race with in-flight reads.
func (f *File) Close() error {
	f.cleanup.Stop()
	region{f.Data, f.src}.release()
	f.Data, f.src = nil, nil
	return nil
}

// Path returns the path the file was opened from.
func (f *File) Path() string { return f.path }

// Checksum returns the footer CRC — a cheap identity covering the geometry,
// the meta section and the per-page checksums, used by external references
// (modelio, the shard map) to detect a swapped or regenerated store.
func (f *File) Checksum() uint32 { return f.checksum }

// Mapped reports whether the file is memory-mapped (false = ReadAt
// fallback).
func (f *File) Mapped() bool { return f.Data != nil }

// NumRows returns the row count.
func (f *File) NumRows() int { return f.rows }

// NumCols returns the column count.
func (f *File) NumCols() int { return f.cols }

// BlockRows returns the rows-per-block granularity.
func (f *File) BlockRows() int { return f.blockRows }

// NumBlocks returns the number of row blocks.
func (f *File) NumBlocks() int { return f.nBlocks }

// BlockLen returns the row count of block blk (the last may be short).
func (f *File) BlockLen(blk int) int {
	if blk == f.nBlocks-1 {
		return f.rows - blk*f.blockRows
	}
	return f.blockRows
}

// Off returns the file offset of column c's page of block blk. Blocks
// before blk are all full; within a block, column pages are contiguous in
// column order.
func (f *File) Off(c, blk int) int64 {
	start := int64(c) * f.width
	if f.starts != nil {
		start = f.starts[c]
	}
	return f.dataStart + int64(blk)*f.blockSize + int64(f.BlockLen(blk))*start
}

// cellWidth returns the byte width of column c's cells.
func (f *File) cellWidth(c int) int64 {
	if f.starts != nil {
		return f.starts[c+1] - f.starts[c]
	}
	return f.width
}

// ReadAt fills p from file offset off, from the mapping or the file.
func (f *File) ReadAt(p []byte, off int64) error {
	if f.Data != nil {
		if off < 0 || off+int64(len(p)) > int64(len(f.Data)) {
			return io.ErrUnexpectedEOF
		}
		copy(p, f.Data[off:])
		return nil
	}
	_, err := f.src.ReadAt(p, off)
	return err
}

// Page returns the raw bytes of column c's page of block blk: a read-only
// view of the mapping when the file is mapped (valid until Close), else
// scratch, grown as needed and filled from the file. Concurrent callers
// must pass distinct scratch.
func (f *File) Page(c, blk int, scratch []byte) ([]byte, error) {
	off, n := f.Off(c, blk), int64(f.BlockLen(blk))*f.cellWidth(c)
	if f.Data != nil {
		return f.Data[off : off+n : off+n], nil
	}
	if int64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := f.src.ReadAt(scratch, off); err != nil {
		return nil, fmt.Errorf("blockfile: reading page (col %d, block %d) of %s: %w", c, blk, f.path, err)
	}
	return scratch, nil
}

// Verify re-reads every page and checks it against the per-page checksums
// recorded at write time, returning the first damaged page. It is a full
// sequential read of the file — an explicit integrity pass, not something
// the hot path pays per access. Its scratch is sized by the pages that
// exist, never by the header's blockRows alone.
func (f *File) Verify() error {
	var scratch []byte
	for blk := 0; blk < f.nBlocks; blk++ {
		for c := 0; c < f.cols; c++ {
			page, err := f.Page(c, blk, scratch)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			scratch = page
			if got, want := crc32.Checksum(page, crcTable), f.crcs[blk*f.cols+c]; got != want {
				return fmt.Errorf("%w: page (col %d, block %d) checksum %08x, recorded %08x", ErrCorrupt, c, blk, got, want)
			}
		}
	}
	return nil
}
