// Package blockfile is the one on-disk framing under SubTab's paged stores:
// internal/codestore (bin codes) and internal/colstore (raw displayed cells)
// differ only in their magic, their meta section and how a cell is encoded.
// Everything else — the layout, the streaming writer, the validating reader,
// the checksums and the mmap-or-ReadAt access path — lives here once.
//
// Layout (little-endian):
//
//	header:  8-byte magic · u16 version · u32 cols · u64 rows · u32 blockRows
//	meta:    (versions from the format's MetaSince on) u32 metaLen, then
//	         metaLen bytes the store package owns — the per-column cell
//	         widths and encodings, and colstore's schema
//	data:    block-major: for each block b, for each column c, one page: the
//	         cells of rows [b*blockRows, min((b+1)*blockRows, rows)) at the
//	         column's cell width (1, 2, 4 or 8 bytes) — block-major so a
//	         writer can stream row chunks without knowing the final row
//	         count up front
//	index:   one u32 CRC-32C per (block, column) page, in data order
//	footer:  u32 CRC-32C over header+meta+index · 8-byte end magic
//
// Versions: Create writes a format's Version; Open reads every version from
// MinVersion up to it and hands the one it found to the store's Layout,
// which derives the cell widths. Version 1 of both stores has fixed widths
// (codestore: no meta, u16 cells; colstore: 8-byte numeric and 4-byte
// categorical cells); version 2 records each column's narrowest exact width
// in the meta section.
//
// Every offset is computable from the header and the cell widths, so Open is
// O(1) in the data size: it reads header, meta and tail and validates the
// magic, the version, the geometry, the exact file length, the footer
// checksum (which covers the page index) and the end magic. A crash
// mid-write leaves a file whose length cannot match its header (index and
// footer are written last), which Open reports as ErrTruncated; silent bit
// rot inside a page is caught by Verify against the per-page checksums.
//
// Readers are safe for concurrent use: the file is memory-mapped where the
// platform supports it and read with pread-style ReadAt elsewhere, and both
// access paths are stateless apart from caller-owned scratch.
//
// A store file can also live in memory: CreateImage writes through the same
// Append, block flush and finish as Create and yields the exact bytes the
// file would hold, and OpenBytes validates such an image through the same
// checks as Open and reads it in place. Package modelio embeds a resident
// model's codes and cells in its model file this way.
package blockfile

import (
	"bytes"
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
	// Version is the version Create writes; Open accepts every version from
	// MinVersion through Version.
	Version, MinVersion uint16
	// MetaSince is the first version whose header is followed by a
	// length-prefixed meta section; older versions have none.
	MetaSince uint16
}

// hasMeta reports whether version v of the format carries a meta section.
func (ft Format) hasMeta(v uint16) bool { return v >= ft.MetaSince }

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

// Writer streams rows into a store file, or into an in-memory image of
// one. Rows are appended in chunks and flushed block by block; Close
// finalizes the index and footer. A writer that never reaches Close leaves
// a file Open rejects, so a crashed export cannot be mistaken for a
// complete store.
type Writer struct {
	dst       sink
	ft        Format
	blockRows int
	rows      uint64
	head      []byte   // header + meta section: what the footer CRC covers besides the index
	buf       [][]byte // per-column pending page bytes (< blockRows rows)
	bufRows   int
	crcs      []uint32
	err       error
}

// sink is what a Writer writes to: an *os.File, or an *image. WriteAt
// patches the header's row count on Close.
type sink interface {
	io.Writer
	io.WriterAt
}

// image is the in-memory sink: the bytes a store file would hold.
type image struct{ buf []byte }

func (m *image) Write(p []byte) (int, error) {
	// Doubling keeps the buffers an image outgrows at about its own size
	// in all; append's gentler growth for large slices would cost several.
	if n := len(m.buf) + len(p); n > cap(m.buf) {
		m.buf = append(make([]byte, 0, max(n, 2*cap(m.buf))), m.buf...)
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *image) WriteAt(p []byte, off int64) (int, error) {
	return copy(m.buf[off:], p), nil
}

// Create starts a store file of cols columns at path in the format's current
// Version; meta is the meta section's payload (ignored when that version has
// none). The file is truncated.
func Create(path string, ft Format, cols, blockRows int, meta []byte) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := newWriter(f, ft, cols, blockRows, meta)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// CreateImage is Create for an in-memory target: after Close, Image returns
// the exact bytes Create would have left in the file.
func CreateImage(ft Format, cols, blockRows int, meta []byte) (*Writer, error) {
	return newWriter(&image{}, ft, cols, blockRows, meta)
}

// newWriter writes the header and meta section to dst and returns the
// writer that streams the pages after them.
func newWriter(dst sink, ft Format, cols, blockRows int, meta []byte) (*Writer, error) {
	if cols <= 0 || blockRows <= 0 {
		return nil, fmt.Errorf("blockfile: create: impossible geometry (%d cols, %d rows/block)", cols, blockRows)
	}
	head := make([]byte, 0, headerSize+4+len(meta))
	head = append(head, ft.Magic[:]...)
	head = binary.LittleEndian.AppendUint16(head, ft.Version)
	head = binary.LittleEndian.AppendUint32(head, uint32(cols))
	head = binary.LittleEndian.AppendUint64(head, 0) // row count, patched on Close
	head = binary.LittleEndian.AppendUint32(head, uint32(blockRows))
	if ft.hasMeta(ft.Version) {
		head = binary.LittleEndian.AppendUint32(head, uint32(len(meta)))
		head = append(head, meta...)
	}
	// The header is rewritten with the final row count on Close; writing a
	// placeholder now keeps the data section at a fixed offset.
	if _, err := dst.Write(head); err != nil {
		return nil, err
	}
	return &Writer{dst: dst, ft: ft, blockRows: blockRows, head: head, buf: make([][]byte, cols)}, nil
}

// Append adds n rows. For each run of rows that fits the current block it
// calls encode once per column: encode(c, dst, off, take) appends column c's
// cells for rows [off, off+take) of the chunk to dst and returns it. An
// encode that meets a cell its column's width cannot hold calls Fail, and
// Append returns that error.
func (w *Writer) Append(n int, encode func(c int, dst []byte, off, take int) []byte) error {
	if w.err != nil {
		return w.err
	}
	for off := 0; off < n; {
		take := min(w.blockRows-w.bufRows, n-off)
		for c := range w.buf {
			w.buf[c] = encode(c, w.buf[c], off, take)
		}
		if w.err != nil {
			return w.err
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
		if _, err := w.dst.Write(w.buf[c]); err != nil {
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
// and the end magic, and syncs and closes the file (a CreateImage writer
// has none).
func (w *Writer) Close() error {
	err := w.finish()
	if f, ok := w.dst.(*os.File); ok {
		err = errors.Join(err, f.Close())
	}
	return err
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
	if _, err := w.dst.Write(index); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(w.head[rowsOff:], w.rows)
	if _, err := w.dst.WriteAt(w.head[:headerSize], 0); err != nil {
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
	if _, err := w.dst.Write(foot); err != nil {
		return err
	}
	if f, ok := w.dst.(*os.File); ok {
		return f.Sync()
	}
	return nil
}

// Image returns the bytes of a CreateImage writer after a successful Close
// (nil for a file writer).
func (w *Writer) Image() []byte {
	if m, ok := w.dst.(*image); ok {
		return m.buf
	}
	return nil
}

// Abort discards the writer and removes the partial file, if any.
func (w *Writer) Abort() {
	if f, ok := w.dst.(*os.File); ok {
		f.Close()
		os.Remove(f.Name())
	}
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

// Layout derives the per-column cell widths of a store from its version,
// its column count and its meta section (nil for versions without one). It
// runs before the file length is validated, so it must bound its own
// allocations by len(meta), not by cols. A single width applies to every
// column: a fixed-width version keeps no per-column table, so a header
// claiming 2^24 columns costs Open no allocation.
type Layout func(version uint16, cols int, meta []byte) (widths []int, err error)

// File is an open, read-only store file. All methods are safe for
// concurrent use. Close releases the mapping/file handle; files that are
// garbage-collected without Close release their resources via a runtime
// cleanup, so an evicted model cannot leak a mapping forever.
type File struct {
	// Data is the whole file when it is memory-mapped or opened from bytes,
	// and nil on the ReadAt path. The typed accessors of the store packages
	// index it directly.
	Data []byte

	path      string
	rows      int
	cols      int
	blockRows int
	nBlocks   int
	version   uint16
	width     int64   // uniform cell width; 0 = per column
	starts    []int64 // starts[c] = summed widths of columns [0, c), cols+1 entries (nil when uniform)
	blockSize int64   // bytes of one full block: blockRows × the summed widths
	dataStart int64
	crcs      []uint32
	checksum  uint32   // footer CRC: the store's identity for external refs
	src       *os.File // what ReadAt reads when the file is not mapped
	res       region   // the OS resources Close releases (none for bytes)
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
// supports it and falling back to plain file reads otherwise. layout derives
// the cell widths of the version found.
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
	file, err := open(f, fi.Size(), ft, layout)
	if err != nil {
		return nil, err
	}
	file.path = path
	if data, err := mapFile(f, fi.Size()); err == nil {
		file.Data = data
		f.Close()
	} else {
		file.src = f
	}
	file.res = region{file.Data, file.src}
	file.cleanup = runtime.AddCleanup(file, region.release, file.res)
	return file, nil
}

// OpenBytes opens a store file image held in memory — what Open validates,
// the same way. The File reads data in place (Data is data) and must not
// outlive it; it holds no OS resources, and its Path is empty.
func OpenBytes(data []byte, ft Format, layout Layout) (*File, error) {
	file, err := open(bytes.NewReader(data), int64(len(data)), ft, layout)
	if err != nil {
		return nil, err
	}
	file.Data = data
	return file, nil
}

// open validates the store file of size bytes that r reads — the magic,
// the version, the geometry, the meta section, the exact length, the
// footer checksum and the end magic — and returns its File without an
// access path.
func open(r io.ReaderAt, size int64, ft Format, layout Layout) (*File, error) {
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, size, headerSize)
	}
	head := make([]byte, headerSize, headerSize+4)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if [8]byte(head[:8]) != ft.Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint16(head[8:])
	if version < ft.MinVersion || version > ft.Version {
		return nil, fmt.Errorf("%w: store version %d, this build reads versions %d to %d", ErrCorrupt, version, ft.MinVersion, ft.Version)
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
	var meta []byte
	if ft.hasMeta(version) {
		if size < headerSize+4 {
			return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, size, headerSize+4)
		}
		head = head[:headerSize+4]
		if _, err := r.ReadAt(head[headerSize:], headerSize); err != nil {
			return nil, err
		}
		metaLen := int64(binary.LittleEndian.Uint32(head[headerSize:]))
		if metaLen > size-int64(len(head)) {
			return nil, fmt.Errorf("%w: meta section claims %d bytes past the file end", ErrTruncated, metaLen)
		}
		meta = make([]byte, metaLen)
		if _, err := r.ReadAt(meta, int64(len(head))); err != nil {
			return nil, err
		}
	}
	file := &File{
		version: version, rows: int(rows64), cols: cols, blockRows: blockRows,
		dataStart: int64(len(head) + len(meta)),
	}
	widths, err := layout(version, cols, meta)
	if err != nil {
		return nil, err
	}
	if len(widths) != 1 && len(widths) != cols {
		return nil, fmt.Errorf("%w: meta section describes %d columns, header says %d", ErrCorrupt, len(widths), cols)
	}
	for c, w := range widths {
		if w <= 0 || w > maxCellWidth {
			return nil, fmt.Errorf("%w: column %d has cell width %d", ErrCorrupt, c, w)
		}
	}
	var rowWidth int64
	if len(widths) == 1 {
		file.width = int64(widths[0])
		rowWidth = int64(cols) * file.width
	} else {
		file.starts = make([]int64, cols+1)
		for c, w := range widths {
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
	if _, err := r.ReadAt(tail, file.dataStart+dataSize); err != nil {
		return nil, err
	}
	if [8]byte(tail[len(tail)-8:]) != ft.EndMagic {
		return nil, fmt.Errorf("%w: missing end magic (crashed writer?)", ErrTruncated)
	}
	h := crc32.New(crcTable)
	h.Write(head)
	h.Write(meta)
	h.Write(tail[:indexSize])
	file.checksum = binary.LittleEndian.Uint32(tail[indexSize:])
	if h.Sum32() != file.checksum {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	file.crcs = make([]uint32, file.nBlocks*cols)
	for i := range file.crcs {
		file.crcs[i] = binary.LittleEndian.Uint32(tail[i*4:])
	}
	return file, nil
}

// Close releases the mapping/file handle. Further reads fail or panic;
// Close is not safe to race with in-flight reads.
func (f *File) Close() error {
	f.cleanup.Stop()
	f.res.release()
	f.Data, f.src, f.res = nil, nil, region{}
	return nil
}

// Path returns the path the file was opened from ("" for OpenBytes).
func (f *File) Path() string { return f.path }

// Checksum returns the footer CRC — a cheap identity covering the geometry,
// the meta section and the per-page checksums, used by external references
// (modelio, the shard map) to detect a swapped or regenerated store.
func (f *File) Checksum() uint32 { return f.checksum }

// Mapped reports whether the file is memory-mapped or in memory (false =
// ReadAt fallback).
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

// Version returns the format version the file was written in.
func (f *File) Version() uint16 { return f.version }

// CellWidth returns the byte width of column c's cells.
func (f *File) CellWidth(c int) int {
	if f.starts != nil {
		return int(f.starts[c+1] - f.starts[c])
	}
	return int(f.width)
}

// CellOff returns the file offset of cell (c, r).
func (f *File) CellOff(c, r int) int64 {
	blk := r / f.blockRows
	return f.Off(c, blk) + int64(r-blk*f.blockRows)*int64(f.CellWidth(c))
}

// Uint decodes one little-endian cell of width w (1, 2, 4 or 8 bytes) from
// the front of b.
func Uint(b []byte, w int) uint64 {
	switch w {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// AppendUint appends v as one little-endian cell of width w to dst.
func AppendUint(dst []byte, v uint64, w int) []byte {
	switch w {
	case 1:
		return append(dst, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(dst, uint16(v))
	case 4:
		return binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return binary.LittleEndian.AppendUint64(dst, v)
}

// Load returns the value of cell (c, r) at its column's width: an in-place
// load on the mapping, else one ReadAt of the cell's bytes.
func (f *File) Load(c, r int) (uint64, error) {
	off, w := f.CellOff(c, r), f.CellWidth(c)
	if f.Data != nil {
		return Uint(f.Data[off:off+int64(w)], w), nil
	}
	var b [maxCellWidth]byte
	if _, err := f.src.ReadAt(b[:w], off); err != nil {
		return 0, fmt.Errorf("blockfile: reading cell (%d,%d) of %s: %w", c, r, f.path, err)
	}
	return Uint(b[:], w), nil
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
	off, n := f.Off(c, blk), int64(f.BlockLen(blk))*int64(f.CellWidth(c))
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
