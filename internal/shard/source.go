package shard

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"subtab/internal/binning"
	"subtab/internal/codestore"
)

// Source is a binning.CodeSource over N shard stores, presenting them as
// one contiguous code matrix. Blocks are virtual: uniform BlockRows-sized
// row ranges (the last may be short) assembled across shard boundaries,
// so consumers that compute blk = row/BlockRows see exactly the geometry
// a single store would give them, regardless of how the shards were cut.
//
// A Source may be partial: shards owned by remote peers have a nil store.
// Reads that touch a missing shard panic (they are programming errors —
// core gates every partial-model path through the shard sampler), and
// BlockAvailable lets attach-time validation and local scans skip what is
// not here. All methods are safe for concurrent use given distinct
// scratch, like every CodeSource.
type Source struct {
	srcs      []binning.CodeSource // per shard; nil = not local
	descs     []Desc
	starts    []int // len(srcs)+1; starts[i] is shard i's first global row
	rows      int
	cols      int
	blockRows int
	closers   []io.Closer
}

// Open opens the shards of m from dir, validating each store's geometry
// and identity checksum against its descriptor. With allowMissing, shards
// whose files do not exist are left unopened (nil) and the Source is
// partial; any other error fails the open. cols is the expected column
// count of every shard.
func Open(dir string, m *Map, cols int, allowMissing bool) (*Source, error) {
	s := &Source{
		descs:  append([]Desc(nil), m.Shards...),
		starts: m.Starts(),
		rows:   m.TotalRows(),
		cols:   cols,
		srcs:   make([]binning.CodeSource, len(m.Shards)),
	}
	stores, err := openShards(dir, m.Shards, cols, allowMissing, "shard", codestore.OpenIn)
	if err != nil {
		return nil, err
	}
	for i, st := range stores {
		if st != nil {
			s.srcs[i] = st
			s.closers = append(s.closers, st)
		}
	}
	s.initBlockRows()
	return s, nil
}

// NewSource wraps already-open per-shard sources as one Source: src i
// must hold counts[i] rows of cols columns. Used by in-process callers
// and the merge property tests; descriptors are synthesized without file
// identities, so such a Source cannot be persisted by modelio.
func NewSource(srcs []binning.CodeSource, counts []int, cols int) (*Source, error) {
	if len(srcs) != len(counts) {
		return nil, fmt.Errorf("shard: %d sources for %d counts", len(srcs), len(counts))
	}
	s := &Source{cols: cols, srcs: append([]binning.CodeSource(nil), srcs...)}
	s.starts = make([]int, len(srcs)+1)
	for i, src := range srcs {
		if counts[i] < 0 {
			return nil, fmt.Errorf("shard: negative row count for shard %d", i)
		}
		if src != nil && (src.NumRows() != counts[i] || src.NumCols() != cols) {
			return nil, fmt.Errorf("shard: shard %d is %dx%d, want %dx%d", i, src.NumRows(), src.NumCols(), counts[i], cols)
		}
		d := Desc{Rows: counts[i], BlockRows: 1}
		if src != nil {
			d.BlockRows = src.BlockRows()
		}
		s.descs = append(s.descs, d)
		s.starts[i+1] = s.starts[i] + counts[i]
	}
	s.rows = s.starts[len(srcs)]
	s.initBlockRows()
	return s, nil
}

// initBlockRows picks the virtual block granularity: the first shard's
// block size (every sink-written layout is uniform), falling back to the
// codestore default for empty maps.
func (s *Source) initBlockRows() {
	s.blockRows = codestore.DefaultBlockRows
	if len(s.descs) > 0 && s.descs[0].BlockRows > 0 {
		s.blockRows = s.descs[0].BlockRows
	}
}

// Close closes every store this Source opened (NewSource-wrapped sources
// stay the caller's to close).
func (s *Source) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// NumShards returns the shard count.
func (s *Source) NumShards() int { return len(s.srcs) }

// ShardAvailable reports whether shard i's rows are readable locally
// (zero-row shards are vacuously available).
func (s *Source) ShardAvailable(i int) bool { return s.srcs[i] != nil || s.descs[i].Rows == 0 }

// Complete reports whether every shard is locally readable.
func (s *Source) Complete() bool {
	for i := range s.srcs {
		if !s.ShardAvailable(i) {
			return false
		}
	}
	return true
}

// ShardSource returns shard i's underlying CodeSource (nil when not
// local).
func (s *Source) ShardSource(i int) binning.CodeSource { return s.srcs[i] }

// ShardStart returns the global row id of shard i's first row.
func (s *Source) ShardStart(i int) int { return s.starts[i] }

// ShardRows returns shard i's row count.
func (s *Source) ShardRows(i int) int { return s.descs[i].Rows }

// Desc returns shard i's descriptor.
func (s *Source) Desc(i int) Desc { return s.descs[i] }

// ShardDescs returns the full descriptor list (modelio persists it as a
// model file's shard map).
func (s *Source) ShardDescs() []Desc { return s.descs }

// Map returns the shard map describing this source.
func (s *Source) Map() *Map { return &Map{Shards: append([]Desc(nil), s.descs...)} }

// NumRows returns the total row count across shards.
func (s *Source) NumRows() int { return s.rows }

// NumCols returns the column count.
func (s *Source) NumCols() int { return s.cols }

// BlockRows returns the virtual block granularity.
func (s *Source) BlockRows() int { return s.blockRows }

// NumBlocks returns the virtual block count.
func (s *Source) NumBlocks() int { return (s.rows + s.blockRows - 1) / s.blockRows }

// shardAt returns the index of the shard owning global row r (the unique
// non-empty shard with starts[i] <= r < starts[i+1]).
func (s *Source) shardAt(r int) int {
	return sort.Search(len(s.srcs), func(i int) bool { return s.starts[i+1] > r })
}

// BlockAvailable reports whether every shard overlapping virtual block
// blk is locally readable — the skip predicate for partial sources
// (binning attach validation, local scans).
func (s *Source) BlockAvailable(blk int) bool {
	start := blk * s.blockRows
	end := min(start+s.blockRows, s.rows)
	for i := s.shardAt(start); i < len(s.srcs) && s.starts[i] < end; i++ {
		if s.starts[i+1] > s.starts[i] && s.srcs[i] == nil {
			return false
		}
	}
	return true
}

// ColumnBlock assembles column c's codes for virtual block blk into
// scratch. When the block lies inside one shard and aligns with that
// shard's own block geometry (the common case: uniform layouts written by
// SplitSink with block-aligned cuts), the read delegates zero-copy to the
// shard store.
func (s *Source) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	start := blk * s.blockRows
	end := min(start+s.blockRows, s.rows)
	n := end - start
	i := s.shardAt(start)
	if sh := s.srcs[i]; sh != nil && s.starts[i+1] >= end {
		lo := start - s.starts[i]
		if sbr := sh.BlockRows(); sbr == s.blockRows && lo%sbr == 0 {
			return sh.ColumnBlock(c, lo/sbr, scratch)
		}
	}
	if cap(scratch) < n {
		scratch = make([]uint16, 0, n)
	}
	out := scratch[:0]
	var tmp []uint16
	for ; i < len(s.srcs) && s.starts[i] < end; i++ {
		lo := max(start, s.starts[i]) - s.starts[i]
		hi := min(end, s.starts[i+1]) - s.starts[i]
		if hi <= lo {
			continue
		}
		sh := s.srcs[i]
		if sh == nil {
			panic(fmt.Sprintf("shard: block %d needs shard %d (%s), which is not local", blk, i, s.descs[i].File))
		}
		out = appendShardRange(out, sh, c, lo, hi, &tmp)
	}
	return out
}

// appendShardRange appends rows [lo, hi) of column c from one shard's own
// blocks onto out, reusing *tmp as decode scratch.
func appendShardRange(out []uint16, src binning.CodeSource, c, lo, hi int, tmp *[]uint16) []uint16 {
	br := src.BlockRows()
	for blk := lo / br; blk*br < hi; blk++ {
		codes := src.ColumnBlock(c, blk, *tmp)
		*tmp = codes
		a := max(lo-blk*br, 0)
		b := min(hi-blk*br, len(codes))
		out = append(out, codes[a:b]...)
	}
	return out
}

// Code returns one cell's code (random access through the owning shard).
func (s *Source) Code(c, r int) uint16 {
	i := s.shardAt(r)
	sh := s.srcs[i]
	if sh == nil {
		panic(fmt.Sprintf("shard: row %d lives in shard %d (%s), which is not local", r, i, s.descs[i].File))
	}
	return sh.Code(c, r-s.starts[i])
}

// localRows recycles GatherCodes' shard-local row id buffers: a select
// gathers every column of every row chunk, so a fresh buffer per call
// would be most of the layout's garbage.
var localRows = sync.Pool{New: func() any { return new([1024]int) }}

// GatherCodes hands each run of rows that one shard owns to that shard's
// GatherCodes, translated to shard-local row ids, so every layout reads
// codes in place just as a single store does.
func (s *Source) GatherCodes(c int, rows []int, dst []uint16) {
	dst = dst[:len(rows)]
	buf := localRows.Get().(*[1024]int)
	defer localRows.Put(buf)
	local := buf[:]
	for i := 0; i < len(rows); {
		sh := s.shardAt(rows[i])
		src := s.srcs[sh]
		if src == nil {
			panic(fmt.Sprintf("shard: row %d lives in shard %d (%s), which is not local", rows[i], sh, s.descs[sh].File))
		}
		lo, hi := s.starts[sh], s.starts[sh+1]
		n := 0
		for ; i+n < len(rows) && n < len(local); n++ {
			r := rows[i+n]
			if r < lo || r >= hi {
				break
			}
			local[n] = r - lo
		}
		src.GatherCodes(c, local[:n], dst[i:i+n])
		i += n
	}
}

// SparseSource is a binning.CodeSource holding codes for an explicit row
// subset of a larger table: the coordinator-side overlay carrying the
// candidate rows a scatter/gather sample returned, so every downstream
// read of a scaled selection (tuple-vector gather, diversity re-rank,
// column vectors) resolves locally even when the rows' shards are remote.
// Reads outside the covered rows panic. Blocks are single rows, so the
// cursor-based consumers remain correct, if pointless, over it.
type SparseSource struct {
	rows, cols int
	idx        map[int]int32
	rowIDs     []int64
	codes      [][]uint16 // [col][position in rowIDs]
}

// NewSparseSource builds an overlay for the given global rows of a
// rows×cols table; codes[c][k] is column c's code for rowIDs[k].
func NewSparseSource(rows, cols int, rowIDs []int64, codes [][]uint16) (*SparseSource, error) {
	if len(codes) != cols {
		return nil, fmt.Errorf("shard: sparse source has %d code columns, table has %d", len(codes), cols)
	}
	idx := make(map[int]int32, len(rowIDs))
	for k, r := range rowIDs {
		if r < 0 || r >= int64(rows) {
			return nil, fmt.Errorf("shard: sparse source row %d out of range [0, %d)", r, rows)
		}
		if _, dup := idx[int(r)]; dup {
			return nil, fmt.Errorf("shard: sparse source row %d duplicated", r)
		}
		idx[int(r)] = int32(k)
	}
	for c := range codes {
		if len(codes[c]) != len(rowIDs) {
			return nil, fmt.Errorf("shard: sparse source column %d has %d codes for %d rows", c, len(codes[c]), len(rowIDs))
		}
	}
	return &SparseSource{rows: rows, cols: cols, idx: idx, rowIDs: rowIDs, codes: codes}, nil
}

// Covers reports whether global row r is present in the overlay.
func (s *SparseSource) Covers(r int) bool { _, ok := s.idx[r]; return ok }

// NumRows returns the full table's row count (the overlay addresses
// global row ids).
func (s *SparseSource) NumRows() int { return s.rows }

// NumCols returns the column count.
func (s *SparseSource) NumCols() int { return s.cols }

// BlockRows returns 1: each covered row is its own block.
func (s *SparseSource) BlockRows() int { return 1 }

// NumBlocks returns the full table's row count.
func (s *SparseSource) NumBlocks() int { return s.rows }

// ColumnBlock returns the single-row block blk (panics when the row is
// not covered).
func (s *SparseSource) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	if cap(scratch) < 1 {
		scratch = make([]uint16, 1)
	}
	scratch = scratch[:1]
	scratch[0] = s.Code(c, blk)
	return scratch
}

// GatherCodes sets dst[i] to the code of covered row rows[i] (panics on a
// row the overlay does not cover).
func (s *SparseSource) GatherCodes(c int, rows []int, dst []uint16) {
	for i, r := range rows {
		dst[i] = s.Code(c, r)
	}
}

// Code returns one covered cell's code.
func (s *SparseSource) Code(c, r int) uint16 {
	k, ok := s.idx[r]
	if !ok {
		panic(fmt.Sprintf("shard: row %d is not covered by the sampled overlay", r))
	}
	return s.codes[c][k]
}
