// Package colstore persists a table's raw displayed columns in a paged
// on-disk format, so a serving instance can render k×l sub-tables without
// keeping the whole raw table resident. It is the display-side sibling of
// internal/codestore (which pages the bin codes).
//
// The file framing — header, block-major pages, per-page CRC index, footer,
// crash and corruption detection, the mmap-or-ReadAt reader — is
// internal/blockfile's; see its package comment for the layout. This package
// owns only what is typed: the "SUBTABPC"/"SUBTABPE" magics and
//
//	meta:    the schema — per column: u16 nameLen · name · u8 kind · for
//	         categorical columns a dictionary page (u32 count, per string
//	         u32 len + bytes) holding the interned strings in code order ·
//	         u8 encoding · u8 cell width in bits · for Offset columns an
//	         i64 base. The footer checksum covers it, dictionaries included.
//	pages:   each cell an unsigned integer of its column's width, packed
//	         as blockfile packs sub-byte cells, per its Encoding: Float64
//	         (64 bits) or Float32 (32 bits) bits, an Offset from the base
//	         (1, 2, 4, 8, 16 or 32 bits), or a DictCode (the same widths).
//	         The all-ones cell of the width marks a missing cell.
//
// The writer picks each column's narrowest exact encoding from the rows it
// writes. Open reads version 3 only; a store of any other version fails
// with ErrVersion. CreateIn streams a store image into a larger file and
// OpenIn opens one in place: a model file (package modelio) holds its
// table's cells so.
package colstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"subtab/internal/blockfile"
	"subtab/internal/table"
)

// Version is the store format version Create writes and the only one Open
// reads.
const Version uint16 = 3

// DefaultBlockRows is the default rows-per-block granularity: 64Ki rows put
// a numeric column page at up to 512KiB — big enough to amortize I/O, small
// enough that gathering one row touches a bounded byte range.
const DefaultBlockRows = 1 << 16

var format = blockfile.Format{
	Magic:    [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'P', 'C'},
	EndMagic: [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'P', 'E'},
	Version:  Version,
}

// ErrTruncated (a crashed or interrupted writer's leftover), ErrCorrupt
// (any other structural damage, an out-of-range dictionary code included)
// and ErrVersion (a store in a retired version) are blockfile's sentinels,
// re-exported so errors.Is against this package's names keeps working.
var (
	ErrTruncated = blockfile.ErrTruncated
	ErrCorrupt   = blockfile.ErrCorrupt
	ErrVersion   = blockfile.ErrVersion
)

// Writer streams a table's rows into a store file. The schema (names,
// kinds, dictionaries, encodings) is fixed at Create; rows are appended in
// chunks and flushed block by block; Close finalizes the index and footer.
// A writer that never reaches Close leaves a file Open rejects.
type Writer struct {
	*blockfile.Writer
	src    []*table.Column // schema (and dictionary) source
	encs   []encoding
	lo, hi int // the source rows the encodings were chosen over
}

// Create starts a store file at path over the table's schema (<= 0
// blockRows uses DefaultBlockRows). The table supplies column names, kinds
// and categorical dictionaries, and each column's encoding is the narrowest
// exact one for its rows [start, end); the cells are appended separately
// with AppendRows, within that range, so a shard export can write its own
// slice. The file is truncated.
func Create(path string, t *table.Table, start, end, blockRows int) (*Writer, error) {
	return create(t, start, end, blockRows, func(widths []int, blockRows int, meta []byte) (*blockfile.Writer, error) {
		return blockfile.Create(path, format, widths, end-start, blockRows, meta)
	})
}

// CreateIn starts a store image of all of t's rows that streams into dst
// (blockfile.CreateIn): its Size is known before any byte is written. The
// rows are appended separately with AppendRows.
func CreateIn(dst io.Writer, t *table.Table, blockRows int) (*Writer, error) {
	return create(t, 0, t.NumRows(), blockRows, func(widths []int, blockRows int, meta []byte) (*blockfile.Writer, error) {
		return blockfile.CreateIn(dst, format, widths, t.NumRows(), blockRows, meta)
	})
}

// create encodes t's schema and the chosen encodings into the meta section
// and starts the blockfile writer open returns over them: a file's or an
// image's inside a larger file.
func create(t *table.Table, start, end, blockRows int, open func(widths []int, blockRows int, meta []byte) (*blockfile.Writer, error)) (*Writer, error) {
	cols := t.Columns()
	if len(cols) == 0 {
		return nil, fmt.Errorf("colstore: create: table %s has no columns", t.Name)
	}
	if !t.CellsResident() {
		return nil, fmt.Errorf("colstore: create: table %s is already paged", t.Name)
	}
	if start < 0 || end < start || end > t.NumRows() {
		return nil, fmt.Errorf("colstore: rows [%d, %d) out of range for a %d-row table", start, end, t.NumRows())
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	var meta []byte
	encs := make([]encoding, len(cols))
	widths := make([]int, len(cols))
	for i, c := range cols {
		if len(c.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("colstore: create: column name %d bytes long", len(c.Name))
		}
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(c.Name)))
		meta = append(meta, c.Name...)
		meta = append(meta, byte(c.Kind))
		if c.Kind == table.Categorical {
			meta = appendDictPage(meta, c.Dict.Strings())
		}
		encs[i] = chooseEncoding(c, start, end)
		widths[i] = encs[i].bits
		meta = encs[i].appendMeta(meta)
	}
	w, err := open(widths, blockRows, meta)
	if err != nil {
		return nil, err
	}
	return &Writer{Writer: w, src: cols, encs: encs, lo: start, hi: end}, nil
}

// AppendRows appends the source table's rows [start, start+n), which must
// lie inside the range Create chose the encodings over.
func (w *Writer) AppendRows(start, n int) error {
	if start < w.lo || n < 0 || start+n > w.hi {
		return w.Fail(fmt.Errorf("colstore: rows [%d, %d) outside the encoded range [%d, %d)", start, start+n, w.lo, w.hi))
	}
	return w.Append(n, func(c int, dst []byte, off, take int) []byte {
		return w.encs[c].appendCells(dst, w.src[c], start+off, take)
	})
}

// WriteTable writes a complete store holding all of t's rows. The file is
// written to a temp name and renamed into place.
func WriteTable(path string, t *table.Table, blockRows int) error {
	return WriteTableRows(path, t, 0, t.NumRows(), blockRows)
}

// WriteTableRows writes a store holding t's rows [start, end) — a shard's
// slice of the table, with the full dictionaries so global codes resolve.
// The file is written to a temp name and renamed into place, so a crash
// never leaves a plausible-looking partial store at path.
func WriteTableRows(path string, t *table.Table, start, end, blockRows int) error {
	return blockfile.WriteAtomic(path, func(tmp string) error {
		w, err := Create(tmp, t, start, end, blockRows)
		if err != nil {
			return err
		}
		return w.appendAll(start, end)
	})
}

// appendAll appends the source rows [start, end) and closes the writer,
// aborting it on failure.
func (w *Writer) appendAll(start, end int) error {
	if err := w.AppendRows(start, end-start); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// Store is an open, read-only paged column store: a blockfile.File
// (geometry, Path, Checksum, Mapped, Verify, Close and the GC cleanup) plus
// the schema and the typed accessors below. All methods are safe for
// concurrent use.
//
// Store implements table.CellSource: GatherCells renders the requested
// cells byte-identically to Column.CellString on the resident table.
type Store struct {
	*blockfile.File
	names []string
	kinds []table.Kind
	dicts [][]string
	encs  []encoding
}

// Open opens the store at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. It validates
// the header, the schema section (encodings included), the exact file
// length, the footer checksum and the end magic; a crashed writer's
// leftover fails with ErrTruncated, and a store of a retired version with
// ErrVersion.
func Open(path string) (*Store, error) {
	s := &Store{}
	f, err := blockfile.Open(path, format, s.parseSchema)
	if err != nil {
		return nil, err
	}
	s.File = f
	return s, nil
}

// OpenIn opens the store image of size bytes at offset off inside r,
// validated as Open validates a file (blockfile.OpenIn).
func OpenIn(r *blockfile.Region, off, size int64) (*Store, error) {
	s := &Store{}
	f, err := blockfile.OpenIn(r, off, size, format, s.parseSchema)
	if err != nil {
		return nil, err
	}
	s.File = f
	return s, nil
}

// parseSchema decodes the meta section into the store's schema and returns
// the per-column cell widths (the blockfile.Layout of this format).
func (s *Store) parseSchema(cols int, meta []byte) ([]int, error) {
	// Every column takes at least a name length and a kind byte, so a column
	// count the section cannot hold is damage, not an allocation request.
	if cols > len(meta)/3 {
		return nil, fmt.Errorf("%w: schema of %d bytes cannot describe %d columns", ErrCorrupt, len(meta), cols)
	}
	s.names = make([]string, cols)
	s.kinds = make([]table.Kind, cols)
	s.dicts = make([][]string, cols)
	s.encs = make([]encoding, cols)
	widths := make([]int, cols)
	off := 0
	for c := 0; c < cols; c++ {
		if len(meta)-off < 2 {
			return nil, fmt.Errorf("%w: schema truncated at column %d", ErrCorrupt, c)
		}
		nameLen := int(binary.LittleEndian.Uint16(meta[off:]))
		off += 2
		if nameLen > len(meta)-off-1 {
			return nil, fmt.Errorf("%w: schema truncated inside column %d's name", ErrCorrupt, c)
		}
		s.names[c] = string(meta[off : off+nameLen])
		off += nameLen
		kind := table.Kind(meta[off])
		off++
		if kind != table.Numeric && kind != table.Categorical {
			return nil, fmt.Errorf("%w: column %q has kind %d", ErrCorrupt, s.names[c], int(kind))
		}
		s.kinds[c] = kind
		if kind == table.Categorical {
			strs, n, err := decodeDictPage(meta[off:])
			if err != nil {
				return nil, fmt.Errorf("%w: column %q: %v", ErrCorrupt, s.names[c], err)
			}
			s.dicts[c] = strs
			off += n
		}
		e, n, err := parseEncoding(meta[off:], kind)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", s.names[c], err)
		}
		s.encs[c] = e
		off += n
		widths[c] = e.bits
	}
	if off != len(meta) {
		return nil, fmt.Errorf("%w: schema section has %d trailing bytes", ErrCorrupt, len(meta)-off)
	}
	return widths, nil
}

// ColumnName returns the name of column c.
func (s *Store) ColumnName(c int) string { return s.names[c] }

// ColumnKind returns the kind of column c.
func (s *Store) ColumnKind(c int) table.Kind { return s.kinds[c] }

// ColumnEncoding returns how column c's cells are stored; CellBits gives
// their width.
func (s *Store) ColumnEncoding(c int) Encoding { return s.encs[c].enc }

// Cell renders one cell — the exact bytes Column.CellString produces on the
// resident column. It errors on out-of-range coordinates or a dictionary
// code the schema's dictionary page does not cover (bit rot; see Verify).
func (s *Store) Cell(c, r int) (string, error) {
	if c < 0 || c >= s.NumCols() || r < 0 || r >= s.NumRows() {
		return "", fmt.Errorf("colstore: cell (%d,%d) out of range for a %dx%d store", c, r, s.NumRows(), s.NumCols())
	}
	u, err := s.Load(c, r)
	if err != nil {
		return "", fmt.Errorf("colstore: %w", err)
	}
	if s.kinds[c] == table.Numeric {
		v := s.encs[c].num(u)
		if math.IsNaN(v) {
			return "NaN", nil
		}
		return table.FormatNum(v), nil
	}
	code, err := s.encs[c].code(u, len(s.dicts[c]))
	if err != nil {
		return "", fmt.Errorf("colstore: cell (%d,%d): %w", c, r, err)
	}
	if code < 0 {
		return "NaN", nil
	}
	return s.dicts[c][code], nil
}

// GatherCells renders column c's cells at the given rows, in order —
// table.CellSource's contract.
func (s *Store) GatherCells(c int, rows []int) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		cell, err := s.Cell(c, r)
		if err != nil {
			return nil, err
		}
		out[i] = cell
	}
	return out, nil
}

// MaterializeTable rebuilds the full typed table — a private copy for
// whole-table scans (query evaluation, append re-binning), the raw-cell
// analogue of binning.MaterializedCodes. The result shares nothing with the
// store and may be mutated freely.
func (s *Store) MaterializeTable(name string) (*table.Table, error) {
	return Concat(name, []*Store{s})
}

// Concat materializes the rows of stores, in order, as one typed table:
// the row-range shards of one table, which share its schema and carry each
// categorical column's whole dictionary. Every column is allocated once,
// at the total row count, and each store decodes a page at a time straight
// into its rows: the page's cells unpack at their width, then one loop per
// encoding fills the column's Nums or Cats.
func Concat(name string, stores []*Store) (*table.Table, error) {
	first := stores[0]
	n := 0
	for _, s := range stores {
		if s.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("colstore: concatenating a %d-column store to a %d-column one", s.NumCols(), first.NumCols())
		}
		n += s.NumRows()
	}
	out := table.New(name)
	var scratch []byte
	var cells []uint64
	for c := 0; c < first.NumCols(); c++ {
		col := &table.Column{Name: first.names[c], Kind: first.kinds[c]}
		if col.Kind == table.Numeric {
			col.Nums = make([]float64, n)
		} else {
			col.Cats = make([]int32, n)
			col.Dict = table.DictFromStrings(first.dicts[c])
			if col.Dict.Size() != len(first.dicts[c]) {
				return nil, fmt.Errorf("%w: column %q's dictionary repeats a string", ErrCorrupt, col.Name)
			}
		}
		base := 0
		for _, s := range stores {
			if s.names[c] != col.Name || s.kinds[c] != col.Kind || !slices.Equal(s.dicts[c], first.dicts[c]) {
				return nil, fmt.Errorf("%w: column %d's schema or dictionary differs between the stores", ErrCorrupt, c)
			}
			e := s.encs[c]
			for blk := 0; blk < s.NumBlocks(); blk++ {
				page, err := s.Page(c, blk, scratch)
				if err != nil {
					return nil, err
				}
				scratch = page
				lo, bn := base+blk*s.BlockRows(), s.BlockLen(blk)
				if cap(cells) < bn {
					cells = make([]uint64, bn)
				}
				cells = cells[:bn]
				blockfile.Unpack(cells, page, e.bits)
				if col.Kind == table.Numeric {
					e.nums(col.Nums[lo:lo+bn], cells)
				} else if err := e.codes(col.Cats[lo:lo+bn], cells, len(s.dicts[c])); err != nil {
					return nil, fmt.Errorf("colstore: column %q: %w", col.Name, err)
				}
			}
			base += s.NumRows()
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}
