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
//	         u32 len + bytes) holding the interned strings in code order.
//	         The footer checksum covers it, dictionaries included.
//	pages:   fixed-width cells (table.PageCellWidth) — numeric: float64
//	         bits as u64; categorical: dictionary code as u32, missing -1
//	         as 0xFFFFFFFF
package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"subtab/internal/blockfile"
	"subtab/internal/table"
)

// Version is the current store format version.
const Version uint16 = 1

// DefaultBlockRows is the default rows-per-block granularity: 64Ki rows put
// a numeric column page at 512KiB — big enough to amortize I/O, small
// enough that gathering one row touches a bounded byte range.
const DefaultBlockRows = 1 << 16

var format = blockfile.Format{
	Magic:    [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'P', 'C'},
	EndMagic: [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'P', 'E'},
	Version:  Version,
	Meta:     true,
}

// ErrTruncated (a crashed or interrupted writer's leftover) and ErrCorrupt
// (any other structural damage, an out-of-range dictionary code included)
// are blockfile's sentinels, re-exported so errors.Is against this package's
// names keeps working.
var (
	ErrTruncated = blockfile.ErrTruncated
	ErrCorrupt   = blockfile.ErrCorrupt
)

// Writer streams a table's rows into a store file. The schema (names,
// kinds, dictionaries) is fixed at Create; rows are appended in chunks and
// flushed block by block; Close finalizes the index and footer. A writer
// that never reaches Close leaves a file Open rejects.
type Writer struct {
	*blockfile.Writer
	src []*table.Column // schema (and dictionary) source
}

// Create starts a store file at path over the table's schema (<= 0
// blockRows uses DefaultBlockRows). The table supplies column names, kinds
// and categorical dictionaries; its cells are appended separately with
// AppendRows, so a shard export can write any row range. The file is
// truncated.
func Create(path string, t *table.Table, blockRows int) (*Writer, error) {
	cols := t.Columns()
	if len(cols) == 0 {
		return nil, fmt.Errorf("colstore: create: table %s has no columns", t.Name)
	}
	if !t.CellsResident() {
		return nil, fmt.Errorf("colstore: create: table %s is already paged", t.Name)
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	var meta []byte
	for _, c := range cols {
		if len(c.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("colstore: create: column name %d bytes long", len(c.Name))
		}
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(c.Name)))
		meta = append(meta, c.Name...)
		meta = append(meta, byte(c.Kind))
		if c.Kind == table.Categorical {
			meta = table.AppendDictPage(meta, c.Dict.Strings())
		}
	}
	w, err := blockfile.Create(path, format, len(cols), blockRows, meta)
	if err != nil {
		return nil, err
	}
	return &Writer{Writer: w, src: cols}, nil
}

// AppendRows appends the source table's rows [start, start+n).
func (w *Writer) AppendRows(start, n int) error {
	return w.Append(n, func(c int, dst []byte, off, take int) []byte {
		return w.src[c].AppendPage(dst, start+off, take)
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
	if start < 0 || end < start || end > t.NumRows() {
		return fmt.Errorf("colstore: rows [%d, %d) out of range for a %d-row table", start, end, t.NumRows())
	}
	return blockfile.WriteAtomic(path, func(tmp string) error {
		w, err := Create(tmp, t, blockRows)
		if err != nil {
			return err
		}
		if err := w.AppendRows(start, end-start); err != nil {
			w.Abort()
			return err
		}
		return w.Close()
	})
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
	names  []string
	kinds  []table.Kind
	dicts  [][]string
	widths []int
}

// Open opens the store at path, memory-mapping it when the platform
// supports it and falling back to plain file reads otherwise. It validates
// the header, the schema section, the exact file length, the footer
// checksum and the end magic; a crashed writer's leftover fails with
// ErrTruncated.
func Open(path string) (*Store, error) {
	s := &Store{}
	f, err := blockfile.Open(path, format, s.parseSchema)
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
	s.widths = make([]int, cols)
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
			strs, n, err := table.DecodeDictPage(meta[off:])
			if err != nil {
				return nil, fmt.Errorf("%w: column %q dictionary page: %v", ErrCorrupt, s.names[c], err)
			}
			s.dicts[c] = strs
			off += n
		}
		s.widths[c] = table.PageCellWidth(kind)
	}
	if off != len(meta) {
		return nil, fmt.Errorf("%w: schema section has %d trailing bytes", ErrCorrupt, len(meta)-off)
	}
	return s.widths, nil
}

// ColumnName returns the name of column c.
func (s *Store) ColumnName(c int) string { return s.names[c] }

// ColumnKind returns the kind of column c.
func (s *Store) ColumnKind(c int) table.Kind { return s.kinds[c] }

// Cell renders one cell — the exact bytes Column.CellString produces on the
// resident column. It errors on out-of-range coordinates or a dictionary
// code the schema's dictionary page does not cover (bit rot; see Verify).
func (s *Store) Cell(c, r int) (string, error) {
	if c < 0 || c >= s.NumCols() || r < 0 || r >= s.NumRows() {
		return "", fmt.Errorf("colstore: cell (%d,%d) out of range for a %dx%d store", c, r, s.NumRows(), s.NumCols())
	}
	var b [8]byte
	blk := r / s.BlockRows()
	off := s.Off(c, blk) + int64(r-blk*s.BlockRows())*int64(s.widths[c])
	if err := s.ReadAt(b[:s.widths[c]], off); err != nil {
		return "", fmt.Errorf("colstore: reading cell (%d,%d) of %s: %w", c, r, s.Path(), err)
	}
	if s.kinds[c] == table.Numeric {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if math.IsNaN(v) {
			return "NaN", nil
		}
		return table.FormatNum(v), nil
	}
	code := int32(binary.LittleEndian.Uint32(b[:4]))
	if code < 0 {
		return "NaN", nil
	}
	if int(code) >= len(s.dicts[c]) {
		return "", fmt.Errorf("%w: cell (%d,%d) has dictionary code %d, dictionary holds %d", ErrCorrupt, c, r, code, len(s.dicts[c]))
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
	out := table.New(name)
	var scratch []byte
	for c := 0; c < s.NumCols(); c++ {
		col := &table.Column{Name: s.names[c], Kind: s.kinds[c]}
		if s.kinds[c] == table.Numeric {
			col.Nums = make([]float64, 0, s.NumRows())
		} else {
			col.Cats = make([]int32, 0, s.NumRows())
			col.Dict = table.DictFromStrings(s.dicts[c])
		}
		for blk := 0; blk < s.NumBlocks(); blk++ {
			page, err := s.Page(c, blk, scratch)
			if err != nil {
				return nil, err
			}
			scratch = page
			if s.kinds[c] == table.Numeric {
				for i := 0; i < len(page); i += 8 {
					col.Nums = append(col.Nums, math.Float64frombits(binary.LittleEndian.Uint64(page[i:])))
				}
			} else {
				dictLen := int32(len(s.dicts[c]))
				for i := 0; i < len(page); i += 4 {
					code := int32(binary.LittleEndian.Uint32(page[i:]))
					if code >= dictLen {
						return nil, fmt.Errorf("%w: column %q holds dictionary code %d, dictionary holds %d", ErrCorrupt, s.names[c], code, dictLen)
					}
					col.Cats = append(col.Cats, code)
				}
			}
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}
