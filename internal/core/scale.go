package core

import (
	"sync"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/f32"
)

// ScaleOptions configures the large-table selection mode: above a row-count
// threshold, Select clusters a deterministic stratified sample of the
// candidate rows with mini-batch k-means instead of running exact k-means
// over every tuple-vector, turning the per-display cost from O(rows) into
// O(SampleBudget) and opening million-row tables to interactive selection.
//
// The mode is a pure gate: below the threshold (or with the zero value) the
// selection path is bit-for-bit the exact path, a guarantee pinned by the
// golden fingerprint tests. Above it, selections remain deterministic — the
// sampler is min-hash based and the mini-batch clustering is seeded — so the
// same model and request always yield the same sub-table; the sub-table just
// comes from a principled sample rather than the full relation.
type ScaleOptions struct {
	// Threshold activates the scaled path when the candidate row set (the
	// whole table, or a query result) has at least this many rows. 0 (the
	// default) disables the mode entirely; 1 forces it for any input, which
	// the equivalence tests use to fingerprint the scaled path on small
	// tables.
	Threshold int
	// SampleBudget caps the candidate rows fed to clustering (default
	// 20000). The stratified sampler guarantees every non-empty (column,
	// bin) item among the candidates is represented, budget permitting.
	SampleBudget int
	// BatchSize is the mini-batch size (default 1024).
	BatchSize int
	// MaxIter bounds mini-batch iterations (default 100).
	MaxIter int
}

// Active reports whether the scaled path handles a candidate set of n rows.
func (s ScaleOptions) Active(n int) bool { return s.Threshold > 0 && n >= s.Threshold }

func (s ScaleOptions) withDefaults() ScaleOptions {
	if s.SampleBudget <= 0 {
		s.SampleBudget = 20000
	}
	if s.BatchSize <= 0 {
		s.BatchSize = 1024
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 100
	}
	return s
}

// scaleSampleSeed decorrelates the sampler's hash domain from the k-means
// seeding rng, which also derives from ClusterSeed.
const scaleSampleSeed = 0x5ca1ab1e5eed

// sample cuts the candidates to the plan's sample budget: a deterministic
// stratified reservoir over the (column, bin) items of the candidate set.
// Full-table samples are memoized per budget (the cache returns exactly
// what a fresh scan would, so warm and cold selections stay byte-identical);
// the cache's single-flight keeps concurrent first selections from scanning
// the table twice. Callers must not mutate the returned rows.
func (m *Model) sample(p *plan, rows rowSet, covered *bitset.Set) rowSet {
	seed, budget := m.SampleSeed(), p.scale.SampleBudget
	if p.sample != sampleCached || rows.n <= budget {
		// A budget covering the whole table samples nothing — "every row"
		// passes through as the fact it is, so there is nothing to memoize.
		var cov func(item int) bool
		if p.sample == sampleCovered {
			cov = covered.Contains
		}
		return stratifiedReservoir(m.B, rows, p.cols, budget, seed, cov)
	}
	ids, _ := m.samples.Fill(budget, func() ([]int, error) {
		return stratifiedReservoir(m.B, rows, p.cols, budget, seed, nil).ids, nil
	})
	return listRows(ids)
}

// rowVectors is the vector-build stage: the candidates' tuple-vectors as one
// matrix, plus its release. Full-column plans can read the model's
// full-table matrix (a tuple-vector depends only on the column set): the
// exact path builds it on first use — the plan's full-cache variant, on
// every local layout — while the scaled path borrows it only when already
// warm, because it never materializes vectors for rows the sample dropped
// (the point of sampling before embedding lookup on million-row tables).
// Everything else is computed per request by gatherTupleVectors — the same
// gather on every layout, the full-table build included — into a pooled
// matrix. All routes produce bit-identical vectors. src, when non-nil, is a
// code overlay (the coordinator's gathered shard codes) that replaces the
// model's own code source for the gather.
func (m *Model) rowVectors(rows rowSet, p *plan, scaled bool, src binning.CodeSource) (f32.Matrix, func()) {
	dim := m.Emb.Dim()
	var full f32.Matrix
	haveFull := false
	switch {
	case !p.allCols || src != nil:
	case scaled:
		full, haveFull = m.vecs.Get(struct{}{})
	case p.vectors == vectorsFullCache:
		full, haveFull = m.fullRowVectors(), true
	}
	if haveFull && rows.ids == nil && rows.n == full.R {
		return full, func() {} // the candidates are the table
	}
	buf := getVecBuf(rows.n * dim)
	mat := f32.Wrap(rows.n, dim, *buf)
	if haveFull {
		f32.GatherRows(mat, full, rows.ids)
	} else {
		m.gatherTupleVectors(mat, rows, p.cols, src)
	}
	return mat, func() { putVecBuf(buf) }
}

// gatherChunkRows is how many rows a worker gathers codes for at a time:
// its code buffer (2 B × rows × columns) stays cache-sized however many
// rows the worker owns.
const gatherChunkRows = 1024

// codeBufPool recycles those per-worker code buffers across selects.
var codeBufPool = sync.Pool{New: func() any { return new([]uint16) }}

// gatherTupleVectors fills dst with the tuple-vectors of the given rows
// over cols, one loop for every layout: each worker takes a contiguous
// range of rows, gathers every column's codes for a chunk of it with one
// GatherCodes call per column (the store reads the rows' code bytes in
// place, never decoding a block whole) and pools each row with
// f32.MeanPoolInto. Row i writes only dst row i, so the result is the same
// at any worker count and bit-identical to Model.RowVector. A non-nil src
// overrides where the codes are read (the coordinator overlay); otherwise
// the model's own code source.
func (m *Model) gatherTupleVectors(dst f32.Matrix, rows rowSet, cols []int, src binning.CodeSource) {
	if src == nil {
		src = m.B.Source()
	}
	k := len(cols)
	base := make([]int32, k)
	for j, c := range cols {
		base[j] = m.B.ItemOf(c, 0)
	}
	f32.ParallelRange(rows.n, f32.Workers(rows.n), func(start, end int) {
		chunk := min(end-start, gatherChunkRows)
		buf := codeBufPool.Get().(*[]uint16)
		defer codeBufPool.Put(buf)
		if cap(*buf) < chunk*k {
			*buf = make([]uint16, chunk*k)
		}
		codes := (*buf)[:chunk*k]
		idx := make([]int32, k)
		var span []int // the chunk's row ids when rows is a range
		if rows.ids == nil {
			span = make([]int, chunk)
		}
		for a := start; a < end; a += chunk {
			n := min(chunk, end-a)
			var ids []int
			if rows.ids != nil {
				ids = rows.ids[a : a+n]
			} else {
				ids = span[:n]
				for i := range ids {
					ids[i] = rows.lo + a + i
				}
			}
			for j, c := range cols {
				src.GatherCodes(c, ids, codes[j*n:(j+1)*n])
			}
			for i := 0; i < n; i++ {
				for j := range idx {
					idx[j] = m.itemRow[base[j]+int32(codes[j*n+i])]
				}
				f32.MeanPoolInto(dst.Row(a+i), m.items, idx)
			}
		}
	})
}
