package f32

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// MeanPoolRows fills every row of dst with the mean of gathered src rows:
// dst row i pools src rows idx[i*k : (i+1)*k], skipping negative indices
// (the "unseen item" sentinel). Per row it performs exactly MeanPoolInto's
// arithmetic — float32 sums in index order, one multiply by 1/n — so a
// batch built through this kernel is bit-identical to per-row pooling.
// It is off the selection path: the tuple-vector gather in package core
// pools each row with MeanPoolInto straight from its gathered codes, with
// no index slab. It is kept because the layer benchmark (bench/layers.go)
// times it.
func MeanPoolRows(dst Matrix, src Matrix, idx []int32, k int) {
	if len(idx) != dst.R*k {
		panic("f32: MeanPoolRows: index slab does not match dst rows")
	}
	ParallelRange(dst.R, Workers(dst.R), func(start, end int) {
		for i := start; i < end; i++ {
			MeanPoolInto(dst.Row(i), src, idx[i*k:(i+1)*k])
		}
	})
}

// spillChunkRows is the row granularity of spill-file I/O.
const spillChunkRows = 4096

// Slab is a bounded row-major float32 buffer for the selection pipeline's
// sampled tuple-vectors: in-memory when it fits the caller's budget, backed
// by an unlinked temp file when it does not. Producers fill it in row
// chunks (WriteChunk); consumers read row chunks (ReadChunk), gather
// scattered rows (Gather), or — when the slab is resident — grab the whole
// matrix with no copy (Matrix). Reads are safe for concurrent use once
// writing is done; Close releases the spill file.
type Slab struct {
	rows, dim int
	mem       Matrix   // resident backing (zero when spilled)
	f         *os.File // spill backing (nil when resident)
	enc       []byte   // write-side encode scratch (producer is single-goroutine)
}

// WrapSlab views an existing in-memory matrix as a Slab (no copy) — the
// fast path when the sampled vectors fit the memory budget.
func WrapSlab(m Matrix) *Slab {
	return &Slab{rows: m.R, dim: m.C, mem: m}
}

// NewSpillSlab creates a file-backed slab of rows×dim float32s in dir
// ("" = the OS temp dir). The file is created unlinked-on-Close; a slab
// that is never Closed leaks a temp file until the OS cleans the dir, so
// callers should defer Close.
func NewSpillSlab(rows, dim int, dir string) (*Slab, error) {
	f, err := os.CreateTemp(dir, "subtab-slab-*.f32")
	if err != nil {
		return nil, err
	}
	// Size the file up front so WriteChunk can write at any offset.
	if err := f.Truncate(int64(rows) * int64(dim) * 4); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &Slab{rows: rows, dim: dim, f: f}, nil
}

// Rows returns the row count. Len is an alias so the slab satisfies
// cluster.PointSource.
func (s *Slab) Rows() int { return s.rows }

// Len returns the row count (cluster.PointSource).
func (s *Slab) Len() int { return s.rows }

// Dim returns the vector dimension.
func (s *Slab) Dim() int { return s.dim }

// Spilled reports whether the slab lives in a temp file.
func (s *Slab) Spilled() bool { return s.f != nil }

// Matrix returns the backing matrix and true when the slab is resident;
// spilled slabs return false and must be read through ReadChunk/Gather.
func (s *Slab) Matrix() (Matrix, bool) {
	if s.f != nil {
		return Matrix{}, false
	}
	return s.mem, true
}

// WriteChunk stores rows [start, start+m.R) from m (m.C must equal the
// slab dimension). The producer side is single-goroutine.
func (s *Slab) WriteChunk(start int, m Matrix) error {
	if m.C != s.dim {
		return fmt.Errorf("f32: slab write: chunk dim %d, slab dim %d", m.C, s.dim)
	}
	if start < 0 || start+m.R > s.rows {
		return fmt.Errorf("f32: slab write: rows [%d,%d) out of 0..%d", start, start+m.R, s.rows)
	}
	if s.f == nil {
		copy(s.mem.Data[start*s.dim:], m.Data)
		return nil
	}
	need := len(m.Data) * 4
	if cap(s.enc) < need {
		s.enc = make([]byte, need)
	}
	buf := s.enc[:need]
	for i, v := range m.Data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	_, err := s.f.WriteAt(buf, int64(start)*int64(s.dim)*4)
	return err
}

// ReadChunk fills dst with rows [start, start+dst.R). For resident slabs
// this is a copy; spilled slabs decode from the file. Concurrent readers
// must pass distinct dst (and scratch is per-call), so chunked scans can
// fan out.
func (s *Slab) ReadChunk(start int, dst Matrix) {
	if dst.C != s.dim || start < 0 || start+dst.R > s.rows {
		panic("f32: slab read: bad chunk geometry")
	}
	if s.f == nil {
		copy(dst.Data, s.mem.Data[start*s.dim:(start+dst.R)*s.dim])
		return
	}
	buf := make([]byte, len(dst.Data)*4)
	if _, err := s.f.ReadAt(buf, int64(start)*int64(s.dim)*4); err != nil {
		panic(fmt.Sprintf("f32: slab read: %v", err))
	}
	for i := range dst.Data {
		dst.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
}

// Gather copies the given rows into dst (dst row j receives slab row
// idx[j]) — the batch-draw primitive of mini-batch clustering over a
// spilled sample.
func (s *Slab) Gather(dst Matrix, idx []int) {
	if dst.C != s.dim || dst.R != len(idx) {
		panic("f32: slab gather: bad geometry")
	}
	if s.f == nil {
		GatherRows(dst, s.mem, idx)
		return
	}
	buf := make([]byte, s.dim*4)
	for j, r := range idx {
		if _, err := s.f.ReadAt(buf, int64(r)*int64(s.dim)*4); err != nil {
			panic(fmt.Sprintf("f32: slab gather: %v", err))
		}
		row := dst.Row(j)
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
}

// ChunkRows returns the preferred chunk granularity for sequential scans
// over this slab.
func (s *Slab) ChunkRows() int {
	if s.f == nil {
		return s.rows
	}
	return spillChunkRows
}

// Close releases the spill file (no-op for resident slabs, whose memory is
// the caller's).
func (s *Slab) Close() error {
	if s.f == nil {
		return nil
	}
	name := s.f.Name()
	err := s.f.Close()
	os.Remove(name)
	s.f = nil
	return err
}
