// Package blockfile is the one on-disk framing under SubTab's paged stores:
// internal/codestore (bin codes) and internal/colstore (raw displayed cells)
// differ only in their magic, their meta section and how a cell is encoded.
// Everything else — the layout, the streaming writer, the validating reader,
// the checksums and the mmap-or-ReadAt access path — lives here once.
//
// Layout (little-endian):
//
//	header:  8-byte magic · u16 version · u32 cols · u64 rows · u32 blockRows
//	meta:    u32 metaLen, then metaLen bytes the store package owns — the
//	         per-column cell widths and encodings, and colstore's schema
//	data:    block-major: for each block b, for each column c, one page: the
//	         n cells of rows [b*blockRows, min((b+1)*blockRows, rows)) at the
//	         column's cell width in bits (1, 2, 4, 8, 16, 32 or 64) — block-
//	         major so a writer can stream row chunks. A page is
//	         ⌈n·bits/8⌉ bytes: cells of a byte or more are little-endian
//	         unsigned integers; sub-byte cells pack from the low bits of
//	         each byte up (cell i at bit i·bits), and the last byte's unused
//	         high bits are zero. Widths are powers of two, so no cell
//	         straddles a byte.
//	index:   one u32 CRC-32C per (block, column) page, in data order
//	footer:  u32 CRC-32C over header+meta+index · 8-byte end magic
//
// Versions: Create writes a format's Version and Open reads that version
// only; any other fails with ErrVersion. Both stores are at version 3,
// whose meta section records each column's cell width in bits, down to 1.
//
// Every offset is computable from the header and the cell widths (File keeps
// each column's page offset within a full block and within the last one), so
// Open is O(1) in the data size: it reads header, meta and tail and
// validates the magic, the version, the geometry, the exact file length, the
// footer checksum (which covers the page index) and the end magic. A crash
// mid-write leaves a file whose length cannot match its header (index and
// footer are written last), which Open reports as ErrTruncated; silent bit
// rot inside a page is caught by Verify against the per-page checksums.
//
// Readers are safe for concurrent use: the file is memory-mapped where the
// platform supports it and read with pread-style ReadAt elsewhere, and both
// access paths are stateless apart from caller-owned scratch.
//
// A writer declares its row count up front, so a store's exact length is
// known before its first page. That lets a store be an image inside a
// larger file: CreateIn streams one into any writer, and OpenIn opens one
// at an offset inside a Region —
// one file's mapping (or read handle, or bytes already in memory) that
// every image opened in it shares. Package modelio keeps a table's codes
// and cells so, inside its model file.
package blockfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
)

// Format identifies one kind of store file. The two stores each declare one
// package-level Format; it is not something a caller configures.
type Format struct {
	Magic, EndMagic [8]byte
	// Version is the version Create writes and the only one Open reads.
	Version uint16
}

// Sentinel errors. The store packages re-export these same values.
var (
	// ErrTruncated marks a store whose file length does not match its
	// header — the signature of a crashed or interrupted writer.
	ErrTruncated = errors.New("blockfile: truncated store file")
	// ErrCorrupt marks structural damage other than truncation (bad magic,
	// checksum mismatch, impossible geometry).
	ErrCorrupt = errors.New("blockfile: corrupt store file")
	// ErrVersion marks a store in a format version other than the one this
	// build writes: intact, but not read.
	ErrVersion = errors.New("blockfile: unsupported store version")
)

const (
	headerSize = 8 + 2 + 4 + 8 + 4 // magic + version + cols + rows + blockRows
	// maxCellBytes bounds a cell: 64 bits. With the geometry caps in Open it
	// keeps every size computation inside int64.
	maxCellBytes = 8
)

// ValidBits reports whether a cell width of bits is one blockfile frames: 1,
// 2, 4, 8, 16, 32 or 64.
func ValidBits(bits int) bool {
	return bits > 0 && bits <= 8*maxCellBytes && bits&(bits-1) == 0
}

// pageLen returns the byte length of a page of n cells of bits each:
// ⌈n·bits/8⌉.
func pageLen(n, bits int) int64 { return (int64(n)*int64(bits) + 7) / 8 }

// CellBytes returns the bytes one cell of bits takes in an encode
// callback's output (Writer.Append): its byte width, or one byte for a
// sub-byte cell, which the writer packs.
func CellBytes(bits int) int { return max(bits/8, 1) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer streams rows into a store file, or into a store image inside a
// larger file. Its row count is declared up front, so every size is known
// before the first page and the header goes out final. Rows are appended in
// chunks and flushed block by block; Close finalizes the index and footer.
// A writer that never reaches Close leaves a file Open rejects, so a
// crashed export cannot be mistaken for a complete store.
type Writer struct {
	dst       io.Writer
	file      *os.File // Create's file, which Close syncs and closes; nil for CreateIn
	ft        Format
	widths    []int // per-column cell width in bits
	blockRows int
	rows      int64  // rows appended so far
	declared  int64  // the row count Close requires
	head      []byte // header + meta section: what the footer CRC covers besides the index
	wroteHead bool
	buf       [][]byte // per-column pending page bytes (< blockRows rows)
	bufRows   int
	crcs      []uint32
	err       error
}

// Create starts a store file at path of exactly rows rows in the format's
// current Version (CreateIn, into a new file that Close syncs and closes).
// The file is truncated.
func Create(path string, ft Format, widths []int, rows, blockRows int, meta []byte) (*Writer, error) {
	w, err := CreateIn(nil, ft, widths, rows, blockRows, meta)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w.dst, w.file = f, f
	return w, nil
}

// CreateIn starts a store image of exactly rows rows that streams into dst
// from dst's current position, one column per entry of widths (each column's
// cell width in bits, ValidBits); meta is the meta section's payload. Size
// is the exact length the
// image will have. Nothing is written before the first page is flushed (or
// Close, for an empty image), so a caller can record Size ahead of the
// image. Close does not close dst.
func CreateIn(dst io.Writer, ft Format, widths []int, rows, blockRows int, meta []byte) (*Writer, error) {
	cols := len(widths)
	if cols <= 0 || blockRows <= 0 || rows < 0 {
		return nil, fmt.Errorf("blockfile: create: impossible geometry (%d cols, %d rows, %d rows/block)", cols, rows, blockRows)
	}
	for c, bits := range widths {
		if !ValidBits(bits) {
			return nil, fmt.Errorf("blockfile: create: column %d has cell width %d bits", c, bits)
		}
	}
	head := make([]byte, 0, headerSize+4+len(meta))
	head = append(head, ft.Magic[:]...)
	head = binary.LittleEndian.AppendUint16(head, ft.Version)
	head = binary.LittleEndian.AppendUint32(head, uint32(cols))
	head = binary.LittleEndian.AppendUint64(head, uint64(rows))
	head = binary.LittleEndian.AppendUint32(head, uint32(blockRows))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(meta)))
	head = append(head, meta...)
	return &Writer{dst: dst, ft: ft, widths: widths, blockRows: blockRows, declared: int64(rows), head: head, buf: make([][]byte, cols)}, nil
}

// Size returns the exact byte length of the store being written.
func (w *Writer) Size() int64 {
	full, tail := w.declared/int64(w.blockRows), int(w.declared%int64(w.blockRows))
	var data int64
	for _, bits := range w.widths {
		data += full*pageLen(w.blockRows, bits) + pageLen(tail, bits)
	}
	blocks := (w.declared + int64(w.blockRows) - 1) / int64(w.blockRows)
	return int64(len(w.head)) + data + blocks*int64(len(w.widths))*4 + 4 + 8
}

// Append adds n rows. For each run of rows that fits the current block it
// calls encode once per column: encode(c, dst, off, take) appends column c's
// cells for rows [off, off+take) of the chunk to dst, CellBytes each, and
// returns it; the writer packs sub-byte cells when it flushes the page. An
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
	w.rows += int64(n)
	return nil
}

// writeHead writes the header and meta section ahead of the first page.
func (w *Writer) writeHead() error {
	if w.wroteHead {
		return nil
	}
	w.wroteHead = true
	if _, err := w.dst.Write(w.head); err != nil {
		return w.Fail(err)
	}
	return nil
}

// flushBlock writes the buffered rows of every column as one block.
func (w *Writer) flushBlock() error {
	if err := w.writeHead(); err != nil {
		return err
	}
	for c, bits := range w.widths {
		if len(w.buf[c]) != w.bufRows*CellBytes(bits) {
			return w.Fail(fmt.Errorf("blockfile: column %d encoded %d bytes for %d cells of %d bits", c, len(w.buf[c]), w.bufRows, bits))
		}
		page := w.buf[c]
		if bits < 8 {
			var err error
			if page, err = pack(page, bits); err != nil {
				return w.Fail(fmt.Errorf("blockfile: column %d: %w", c, err))
			}
		}
		w.crcs = append(w.crcs, crc32.Checksum(page, crcTable))
		if _, err := w.dst.Write(page); err != nil {
			return w.Fail(err)
		}
		w.buf[c] = w.buf[c][:0]
	}
	w.bufRows = 0
	return nil
}

// pack packs cells, one value below 2^bits per byte, in place into a page
// of bits-wide cells and returns it: byte j takes cells [j·8/bits,
// (j+1)·8/bits), the first in its low bits, and the unused high bits of the
// last byte stay zero. Byte j is written only after the cells it takes,
// which lie at or after j, were read.
func pack(cells []byte, bits int) ([]byte, error) {
	var seen byte
	for _, v := range cells {
		seen |= v
	}
	if seen>>bits != 0 {
		return nil, fmt.Errorf("a cell above %d in %d-bit cells", 1<<bits-1, bits)
	}
	per := 8 / bits
	full := len(cells) / per
	switch bits {
	case 1:
		for j := range full {
			c := cells[8*j : 8*j+8 : 8*j+8]
			cells[j] = c[0] | c[1]<<1 | c[2]<<2 | c[3]<<3 | c[4]<<4 | c[5]<<5 | c[6]<<6 | c[7]<<7
		}
	case 2:
		for j := range full {
			c := cells[4*j : 4*j+4 : 4*j+4]
			cells[j] = c[0] | c[1]<<2 | c[2]<<4 | c[3]<<6
		}
	default:
		for j := range full {
			c := cells[2*j : 2*j+2 : 2*j+2]
			cells[j] = c[0] | c[1]<<4
		}
	}
	n := full
	if rest := cells[full*per:]; len(rest) > 0 {
		var b byte
		for k, v := range rest {
			b |= v << (k * bits)
		}
		cells[n] = b
		n++
	}
	return cells[:n], nil
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
// the footer checksum and the end magic, and syncs and closes a Create
// file. Appending other than the declared row count fails it.
func (w *Writer) Close() error {
	err := w.finish()
	if w.file != nil {
		if err == nil {
			err = w.file.Sync()
		}
		err = errors.Join(err, w.file.Close())
	}
	return err
}

func (w *Writer) finish() error {
	if w.err != nil {
		return w.err
	}
	if w.rows != w.declared {
		return w.Fail(fmt.Errorf("blockfile: %d rows appended to a store declared with %d", w.rows, w.declared))
	}
	if w.bufRows > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	if err := w.writeHead(); err != nil {
		return err
	}
	index := make([]byte, 0, 4*len(w.crcs))
	for _, crc := range w.crcs {
		index = binary.LittleEndian.AppendUint32(index, crc)
	}
	if _, err := w.dst.Write(index); err != nil {
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
	_, err := w.dst.Write(foot)
	return err
}

// Abort discards the writer and removes a Create writer's partial file.
func (w *Writer) Abort() {
	if w.file != nil {
		w.file.Close()
		os.Remove(w.file.Name())
	}
}

// ErrUnsynced wraps WriteAtomic's failure to sync the directory after its
// rename: the new file is in place, and is what a reader opens, but the
// rename may not survive a crash.
var ErrUnsynced = errors.New("blockfile: rename not synced to its directory")

// WriteAtomic runs write against path+".tmp", renames the result into
// place and syncs the directory, so path holds the old file or the new
// one, never a plausible-looking partial file, and the rename survives a
// crash once WriteAtomic returns nil; write must sync what it wrote. The
// temp file is removed on every failure before the rename, a failed rename
// included. After the rename only the directory sync can fail, with
// ErrUnsynced: the new file is committed.
func WriteAtomic(path string, write func(tmp string) error) error {
	tmp := path + ".tmp"
	err := write(tmp)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("%w: %w", ErrUnsynced, err)
	}
	return nil
}

// Layout derives the per-column cell widths in bits of a store from its
// column count and its meta section, one width per column. It runs before
// the file length is validated, so it must bound its own allocations by
// len(meta), not by cols: a header claiming 2^24 columns over a small meta
// section is damage, not an allocation request.
type Layout func(cols int, meta []byte) (widths []int, err error)

// File is an open, read-only store: a whole file, or an image inside one
// (OpenIn). All methods are safe for concurrent use. Close releases its
// hold on the Region it reads; a File that is garbage-collected without
// Close lets the Region's runtime cleanup release the mapping or handle,
// so an evicted model cannot leak a mapping forever.
type File struct {
	// Data is the store's bytes when its Region is memory-mapped or in
	// memory, and nil on the ReadAt path. The typed accessors of the store
	// packages index it directly.
	Data []byte

	path      string
	rows      int
	cols      int
	blockRows int
	nBlocks   int
	bits      []int // per-column cell width in bits
	blockSize int64 // bytes of one full block: its pages' summed lengths
	dataStart int64
	// fullStarts[c] and lastStarts[c] are the offsets of column c's page
	// within a full block and within the last block: the summed page
	// lengths of columns [0, c), cols+1 entries each.
	fullStarts []int64
	lastStarts []int64
	crcs       []uint32
	checksum   uint32            // footer CRC: the store's identity in a shard map
	src        *io.SectionReader // the store's bytes, read when Data is nil
	reg        *Region
}

// Region is the bytes of one file that stores are opened in: its
// read-only memory mapping where the platform supports it, else its handle,
// read with ReadAt; or a byte slice already in memory (BytesRegion). Every
// store opened in a Region shares it, so a model file holding two images
// is mapped once. A Region counts its holders — the opener, and each File
// opened in it — and releases its mapping or handle when the last one
// closes, or through a runtime cleanup once nothing references it.
type Region struct {
	io.ReaderAt          // the mapping or bytes through a bytes.Reader, else the file
	data        []byte   // the whole file when mapped or in memory
	src         *os.File // the handle, when not mapped
	path        string
	size        int64
	refs        atomic.Int64
	cleanup     runtime.Cleanup
}

// resources names a Region's OS resources (mapping or file handle) so the
// runtime cleanup can release them without referencing the Region itself.
type resources struct {
	data []byte   // non-nil when memory-mapped
	f    *os.File // non-nil when reading through the file
}

func (r resources) release() {
	if r.data != nil {
		munmap(r.data)
	}
	if r.f != nil {
		r.f.Close()
	}
}

// mapFile is mmapFile unless DisableMapping swapped in a failing stub.
var mapFile = mmapFile

// DisableMapping makes every later OpenRegion and Map take the ReadAt
// access path of non-unix builds until the returned func restores mapping:
// a test seam for this package and those above it, not to be raced with
// opens.
func DisableMapping() (restore func()) {
	old := mapFile
	mapFile = func(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }
	return func() { mapFile = old }
}

// OpenRegion opens the file at path, memory-mapping it when the platform
// supports it and falling back to file reads otherwise. The caller holds
// one reference and drops it with Close.
func OpenRegion(path string) (*Region, error) {
	r, err := OpenUnmapped(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Map(), nil
}

// OpenUnmapped opens the file at path without mapping it: every read goes
// through the file's handle (pread), so bytes read once do not stay
// resident in the process. The caller holds one reference and drops it
// with Close.
func OpenUnmapped(path string) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &Region{ReaderAt: f, src: f, path: path, size: fi.Size()}
	r.refs.Store(1)
	r.cleanup = runtime.AddCleanup(r, resources.release, resources{f: f})
	return r, nil
}

// Map returns a Region over the same bytes that stores read in place: r's
// file memory-mapped where the platform supports it — the same file r
// reads, even if its path was renamed over since — else r itself. The
// caller holds one reference to the result and drops it with Close.
func (r *Region) Map() *Region {
	if r.src != nil {
		if data, err := mapFile(r.src, r.size); err == nil {
			m := &Region{ReaderAt: bytes.NewReader(data), data: data, path: r.path, size: r.size}
			m.refs.Store(1)
			m.cleanup = runtime.AddCleanup(m, resources.release, resources{data: data})
			return m
		}
	}
	r.refs.Add(1)
	return r
}

// BytesRegion returns a Region over data, which stores opened in it read in
// place and must not outlive. It holds no OS resources.
func BytesRegion(data []byte) *Region {
	r := &Region{ReaderAt: bytes.NewReader(data), data: data, size: int64(len(data))}
	r.refs.Store(1)
	return r
}

// Size returns the region's length in bytes.
func (r *Region) Size() int64 { return r.size }

// Close drops one reference; the last releases the mapping or handle.
// Reads through the region or its stores must not race with the last
// Close.
func (r *Region) Close() error {
	if r.refs.Add(-1) == 0 {
		r.cleanup.Stop()
		resources{r.data, r.src}.release()
	}
	return nil
}

// Open opens the store file at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. layout derives
// the cell widths from the meta section.
func Open(path string, ft Format, layout Layout) (*File, error) {
	r, err := OpenRegion(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return OpenIn(r, 0, r.Size(), ft, layout)
}

// OpenIn opens the store image of size bytes at offset off inside r —
// validated as Open validates a whole file — and takes a reference to r,
// which the File's Close drops. The File reads the mapping or bytes in
// place, or r's file through a section reader.
func OpenIn(r *Region, off, size int64, ft Format, layout Layout) (*File, error) {
	if off < 0 || size < 0 || off > r.size-size {
		return nil, fmt.Errorf("%w: a %d-byte store at offset %d of a %d-byte file", ErrTruncated, size, off, r.size)
	}
	src := io.NewSectionReader(r, off, size)
	file, err := open(src, size, ft, layout)
	if err != nil {
		return nil, err
	}
	file.path, file.src, file.reg = r.path, src, r
	if r.data != nil {
		file.Data = r.data[off : off+size : off+size]
	}
	r.refs.Add(1)
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
	if version := binary.LittleEndian.Uint16(head[8:]); version != ft.Version {
		return nil, fmt.Errorf("%w: store version %d, this build reads version %d", ErrVersion, version, ft.Version)
	}
	cols := int(binary.LittleEndian.Uint32(head[10:]))
	rows64 := binary.LittleEndian.Uint64(head[14:])
	blockRows := int(binary.LittleEndian.Uint32(head[22:]))
	// Geometry caps double as overflow guards: with cols <= 2^24, rows <=
	// 2^40, rows×cols <= 2^59 and cells of at most 8 bytes, every size
	// computation below stays inside int64, so a crafted header cannot wrap
	// the expected size around to match a small file.
	if cols <= 0 || cols > 1<<24 || blockRows <= 0 || rows64 > 1<<40 ||
		(rows64 > 0 && uint64(cols) > (1<<59)/rows64) {
		return nil, fmt.Errorf("%w: impossible geometry (%d cols, %d rows, %d rows/block)", ErrCorrupt, cols, rows64, blockRows)
	}
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
	meta := make([]byte, metaLen)
	if _, err := r.ReadAt(meta, int64(len(head))); err != nil {
		return nil, err
	}
	file := &File{
		rows: int(rows64), cols: cols, blockRows: blockRows,
		dataStart: int64(len(head) + len(meta)),
	}
	widths, err := layout(cols, meta)
	if err != nil {
		return nil, err
	}
	if len(widths) != cols {
		return nil, fmt.Errorf("%w: meta section describes %d columns, header says %d", ErrCorrupt, len(widths), cols)
	}
	for c, bits := range widths {
		if !ValidBits(bits) {
			return nil, fmt.Errorf("%w: column %d has cell width %d bits", ErrCorrupt, c, bits)
		}
	}
	file.bits = widths
	if file.rows > 0 {
		file.nBlocks = (file.rows + blockRows - 1) / blockRows
	}
	// With cells of at most 64 bits, a full block's pages sum to at most
	// 2^59 bytes (blockRows < 2^32, cols <= 2^24), and blocks before the
	// last exist only when blockRows < rows, so the data size stays below
	// 2^62 plus a byte of padding per page.
	var lastRows int
	if file.nBlocks > 0 {
		lastRows = file.BlockLen(file.nBlocks - 1)
	}
	file.fullStarts = make([]int64, cols+1)
	file.lastStarts = make([]int64, cols+1)
	for c, bits := range widths {
		file.fullStarts[c+1] = file.fullStarts[c] + pageLen(blockRows, bits)
		file.lastStarts[c+1] = file.lastStarts[c] + pageLen(lastRows, bits)
	}
	file.blockSize = file.fullStarts[cols]
	lastSize := file.lastStarts[cols]
	var dataSize int64
	if file.nBlocks > 0 {
		dataSize = int64(file.nBlocks-1)*file.blockSize + lastSize
	}
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

// Close drops the file's hold on its Region. Further reads fail or panic;
// Close is not safe to race with in-flight reads.
func (f *File) Close() error {
	if f.reg != nil {
		f.reg.Close()
	}
	f.Data, f.src, f.reg = nil, nil, nil
	return nil
}

// Path returns the path of the file the store was opened from ("" for a
// BytesRegion).
func (f *File) Path() string { return f.path }

// Size returns the store's length in bytes.
func (f *File) Size() int64 { return f.src.Size() }

// WriteTo writes the store's bytes to w (io.WriterTo): a verbatim copy,
// for a model re-saved without re-encoding its stores.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	return io.Copy(w, io.NewSectionReader(f.src, 0, f.src.Size()))
}

// Checksum returns the footer CRC — a cheap identity covering the geometry,
// the meta section and the per-page checksums, which a model file's shard
// map records to detect a swapped or regenerated shard.
func (f *File) Checksum() uint32 { return f.checksum }

// Mapped reports whether the store is memory-mapped or in memory (false =
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
	starts := f.fullStarts
	if blk == f.nBlocks-1 {
		starts = f.lastStarts
	}
	return f.dataStart + int64(blk)*f.blockSize + starts[c]
}

// CellBits returns the width in bits of column c's cells.
func (f *File) CellBits(c int) int { return f.bits[c] }

// CellOff returns the file offset of the byte that holds cell (c, r) — its
// first byte, for a cell of a byte or more.
func (f *File) CellOff(c, r int) int64 {
	blk := r / f.blockRows
	return f.Off(c, blk) + int64(r-blk*f.blockRows)*int64(f.CellBits(c))/8
}

// cellAt decodes cell i of a page of bits-wide cells: a little-endian
// unsigned integer for a cell of a byte or more, else the cell's bits
// shifted down out of the byte that holds them and masked.
func cellAt(page []byte, i, bits int) uint64 {
	switch bits {
	case 8:
		return uint64(page[i])
	case 16:
		return uint64(binary.LittleEndian.Uint16(page[2*i:]))
	case 32:
		return uint64(binary.LittleEndian.Uint32(page[4*i:]))
	case 64:
		return binary.LittleEndian.Uint64(page[8*i:])
	}
	at := i * bits
	return uint64(page[at>>3]>>(at&7)) & (1<<bits - 1)
}

// Unpack decodes the first len(dst) cells of a page of bits-wide cells into
// dst, one loop per width; sub-byte cells unpack a whole byte per step.
// Values wider than T are truncated; callers pick a T that holds their
// widths.
func Unpack[T ~uint16 | ~uint64](dst []T, page []byte, bits int) {
	switch bits {
	case 1:
		full := len(dst) / 8
		for j, b := range page[:full] {
			d := dst[8*j : 8*j+8 : 8*j+8]
			d[0], d[1], d[2], d[3] = T(b&1), T(b>>1&1), T(b>>2&1), T(b>>3&1)
			d[4], d[5], d[6], d[7] = T(b>>4&1), T(b>>5&1), T(b>>6&1), T(b>>7)
		}
		unpackTail(dst, page, full*8, bits)
	case 2:
		full := len(dst) / 4
		for j, b := range page[:full] {
			d := dst[4*j : 4*j+4 : 4*j+4]
			d[0], d[1], d[2], d[3] = T(b&3), T(b>>2&3), T(b>>4&3), T(b>>6)
		}
		unpackTail(dst, page, full*4, bits)
	case 4:
		full := len(dst) / 2
		for j, b := range page[:full] {
			d := dst[2*j : 2*j+2 : 2*j+2]
			d[0], d[1] = T(b&0xF), T(b>>4)
		}
		unpackTail(dst, page, full*2, bits)
	case 8:
		for i := range dst {
			dst[i] = T(page[i])
		}
	case 16:
		for i := range dst {
			dst[i] = T(binary.LittleEndian.Uint16(page[2*i:]))
		}
	case 32:
		for i := range dst {
			dst[i] = T(binary.LittleEndian.Uint32(page[4*i:]))
		}
	default:
		for i := range dst {
			dst[i] = T(binary.LittleEndian.Uint64(page[8*i:]))
		}
	}
}

// unpackTail decodes sub-byte cells [from, len(dst)) one at a time: the
// cells of a page's last, partly filled byte.
func unpackTail[T ~uint16 | ~uint64](dst []T, page []byte, from, bits int) {
	for i := from; i < len(dst); i++ {
		dst[i] = T(cellAt(page, i, bits))
	}
}

// AppendCell appends v as one cell of bits to an encode callback's dst
// (Writer.Append): little-endian in CellBytes(bits) bytes, a sub-byte cell
// as one byte the writer packs.
func AppendCell(dst []byte, v uint64, bits int) []byte {
	switch bits {
	case 16:
		return binary.LittleEndian.AppendUint16(dst, uint16(v))
	case 32:
		return binary.LittleEndian.AppendUint32(dst, uint32(v))
	case 64:
		return binary.LittleEndian.AppendUint64(dst, v)
	}
	return append(dst, byte(v))
}

// Load returns the value of cell (c, r) at its column's width: an in-place
// load on the mapping, else one ReadAt of the bytes that hold the cell.
// Either way it reads no byte past the cell's page.
func (f *File) Load(c, r int) (uint64, error) {
	bits := f.CellBits(c)
	blk := r / f.blockRows
	at := int64(r-blk*f.blockRows) * int64(bits) // the cell's bit offset in its page
	off, n := f.Off(c, blk)+at>>3, int64(CellBytes(bits))
	var b []byte
	if f.Data != nil {
		b = f.Data[off : off+n]
	} else {
		var buf [maxCellBytes]byte
		b = buf[:n]
		if _, err := f.src.ReadAt(b, off); err != nil {
			return 0, fmt.Errorf("blockfile: reading cell (%d,%d) of %s: %w", c, r, f.path, err)
		}
	}
	if bits < 8 {
		return uint64(b[0]>>(at&7)) & (1<<bits - 1), nil
	}
	return cellAt(b, 0, bits), nil
}

// Page returns the raw bytes of column c's page of block blk: a read-only
// view of the mapping when the file is mapped (valid until Close), else
// scratch, grown as needed and filled from the file. Concurrent callers
// must pass distinct scratch.
func (f *File) Page(c, blk int, scratch []byte) ([]byte, error) {
	off, n := f.Off(c, blk), pageLen(f.BlockLen(blk), f.CellBits(c))
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
