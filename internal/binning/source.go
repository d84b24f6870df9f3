package binning

import "fmt"

// CodeSource provides chunked, read-only access to a table's per-column
// bin codes. It is the one interface behind which the selection data path
// (package core) reads codes, so every stage — the stratified sampler, the
// tuple-vector gather, the diversity re-rank, the bin-count scan — runs
// identically whether the codes live in memory (MemCodes) or in an
// on-disk store (package codestore, which implements this
// interface structurally). Implementations must be safe for concurrent
// use given distinct scratch and dst slices.
type CodeSource interface {
	NumRows() int
	NumCols() int
	// BlockRows is the rows-per-block granularity (the last block may be
	// short); NumBlocks is the block count.
	BlockRows() int
	NumBlocks() int
	// ColumnBlock returns column c's codes for block blk, decoding into
	// scratch when the codes are not already resident.
	ColumnBlock(c, blk int, scratch []uint16) []uint16
	// Code returns one cell's code (random access).
	Code(c, r int) uint16
	// GatherCodes sets dst[i] to Code(c, rows[i]) for every i; len(dst)
	// must equal len(rows). Rows may come in any order and may repeat;
	// ascending rows read each block's bytes in order. Like ColumnBlock it
	// panics on a page it cannot read.
	GatherCodes(c int, rows []int, dst []uint16)
}

// PartialCodeSource is a CodeSource that may be missing row ranges: a
// sharded source whose shards are partly owned by remote peers (package
// shard). BlockAvailable reports whether block blk is locally readable;
// full-scan consumers (attach-time validation) skip unavailable blocks,
// and the selection path gates partial sources onto the scatter/gather
// sampler instead of reading them directly.
type PartialCodeSource interface {
	CodeSource
	BlockAvailable(blk int) bool
}

// CodeSink consumes column code chunks — the export half of the
// out-of-core path (codestore.Writer implements it).
type CodeSink interface {
	AppendColumns(chunk [][]uint16) error
}

// MemCodes is the resident CodeSource: a table's bin codes in memory, one
// slice per column (MemCodes[c][r] is row r's code in column c), read as
// one block spanning every row and returned as a view (no copy).
type MemCodes [][]uint16

func (m MemCodes) NumRows() int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}
func (m MemCodes) NumCols() int   { return len(m) }
func (m MemCodes) BlockRows() int { return max(m.NumRows(), 1) }
func (m MemCodes) NumBlocks() int {
	if m.NumRows() > 0 {
		return 1
	}
	return 0
}
func (m MemCodes) ColumnBlock(c, blk int, scratch []uint16) []uint16 { return m[c] }
func (m MemCodes) Code(c, r int) uint16                              { return m[c][r] }
func (m MemCodes) GatherCodes(c int, rows []int, dst []uint16) {
	codes := m[c]
	for i, r := range rows {
		dst[i] = codes[r]
	}
}

// Source returns the table's code source: MemCodes when the codes are
// resident, else the attached store.
func (b *Binned) Source() CodeSource { return b.src }

// Paged reports whether the codes are served from a store (a code store,
// its shards) rather than held as MemCodes.
func (b *Binned) Paged() bool {
	_, mem := b.src.(MemCodes)
	return !mem
}

// Code returns the bin code of the cell (column c, row r).
func (b *Binned) Code(c, r int) uint16 {
	if mem, ok := b.src.(MemCodes); ok {
		return mem[c][r]
	}
	return b.src.Code(c, r)
}

// AttachStore makes cs the binned table's code source, after validating
// its geometry and — with one chunked scan — that every code addresses an
// existing bin. Codes held before, in memory or in another store, are no
// longer read. It must not race concurrent readers of this Binned: attach
// during setup, before the model starts serving.
func (b *Binned) AttachStore(cs CodeSource) error {
	if cs == nil {
		return fmt.Errorf("binning: attach: nil code source")
	}
	if cs.NumRows() != b.NumRows() || cs.NumCols() != len(b.Cols) {
		return fmt.Errorf("binning: attach: store is %dx%d, binned table is %dx%d",
			cs.NumRows(), cs.NumCols(), b.NumRows(), len(b.Cols))
	}
	if mem, ok := cs.(MemCodes); ok {
		for c := range mem {
			if len(mem[c]) != b.NumRows() {
				return fmt.Errorf("binning: attach: column %d has %d codes, table has %d rows", c, len(mem[c]), b.NumRows())
			}
		}
	}
	if err := b.validateSource(cs); err != nil {
		return err
	}
	b.src = cs
	return nil
}

// validateSource streams every block once and checks each code against the
// owning column's bin count, so a swapped or corrupted store cannot index
// labels or embeddings out of range later. Partial sources are validated
// over the blocks they can read — remote shards are each validated by the
// peer that owns them.
func (b *Binned) validateSource(cs CodeSource) error {
	partial, _ := cs.(PartialCodeSource)
	scratch := make([]uint16, min(cs.BlockRows(), cs.NumRows()))
	for c := range b.Cols {
		nb := uint16(b.Cols[c].NumBins())
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			if partial != nil && !partial.BlockAvailable(blk) {
				continue
			}
			for i, code := range cs.ColumnBlock(c, blk, scratch) {
				if code >= nb {
					return fmt.Errorf("binning: attach: column %d row %d has code %d, column has %d bins",
						c, blk*cs.BlockRows()+i, code, nb)
				}
			}
		}
	}
	return nil
}

// MaterializedCodes returns all per-column codes as in-memory slices: the
// MemCodes themselves when resident (no copy), otherwise one chunked read
// of the whole store. It never mutates the Binned, so concurrent selections
// can keep streaming from the store while a caller (rule mining, append)
// materializes its own copy.
func (b *Binned) MaterializedCodes() ([][]uint16, error) {
	if mem, ok := b.src.(MemCodes); ok {
		return mem, nil
	}
	cs := b.src
	n := b.NumRows()
	out := make([][]uint16, len(b.Cols))
	for c := range out {
		col := make([]uint16, 0, n)
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			col = append(col, cs.ColumnBlock(c, blk, nil)...)
		}
		out[c] = col
	}
	return out, nil
}

// ExportCodes streams the table's codes into sink in chunks of chunkRows
// rows (<= 0 picks a block-sized chunk). It works from any code source,
// so a store can be re-exported (compaction, a different block size)
// without materializing the table.
func (b *Binned) ExportCodes(sink CodeSink, chunkRows int) error {
	src := b.src
	n := b.NumRows()
	if chunkRows <= 0 {
		chunkRows = min(src.BlockRows(), 1<<16)
	}
	mc := len(b.Cols)
	chunk := make([][]uint16, mc)
	scratch := make([][]uint16, mc)
	for start := 0; start < n; start += chunkRows {
		end := min(start+chunkRows, n)
		for c := 0; c < mc; c++ {
			chunk[c] = readRange(src, c, start, end, &scratch[c])
		}
		if err := sink.AppendColumns(chunk); err != nil {
			return err
		}
	}
	if n == 0 {
		// A zero-row table still exports its (empty) columns so the sink
		// records the correct column count.
		for c := 0; c < mc; c++ {
			chunk[c] = nil
		}
		return sink.AppendColumns(chunk)
	}
	return nil
}

// readRange returns column c's codes for rows [start, end), assembling
// across block boundaries into *buf when the range is not a sub-slice of
// one resident block.
func readRange(src CodeSource, c, start, end int, buf *[]uint16) []uint16 {
	br := src.BlockRows()
	if b0 := start / br; b0 == (end-1)/br {
		blk := src.ColumnBlock(c, b0, nil)
		return blk[start-b0*br : end-b0*br]
	}
	if cap(*buf) < end-start {
		*buf = make([]uint16, end-start)
	}
	out := (*buf)[:0]
	for blk := start / br; blk*br < end; blk++ {
		codes := src.ColumnBlock(c, blk, nil)
		lo := max(start-blk*br, 0)
		hi := min(end-blk*br, len(codes))
		out = append(out, codes[lo:hi]...)
	}
	*buf = out
	return out
}
