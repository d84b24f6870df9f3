package core

import (
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
	// SlabBudgetBytes caps the in-memory size of the sampled tuple-vector
	// slab: a sample whose vectors (SampleBudget × dim × 4 bytes) exceed
	// the budget is built chunk by chunk into a spill file and clustered by
	// chunked reads, keeping the selection's resident footprint bounded
	// regardless of the sample budget. 0 (the default) never spills — the
	// historical in-memory behaviour. Selections are bit-identical either
	// way.
	SlabBudgetBytes int64
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
// slab, plus its release. Full-column plans can read the model's full-table
// matrix (a tuple-vector depends only on the column set): the exact path
// builds it on first use — inline codes only, the plan's full-cache variant
// — while the scaled path borrows it only when already warm, because it
// never materializes vectors for rows the sample dropped (the point of
// sampling before embedding lookup on million-row tables). Everything else
// is computed per request into a pooled matrix, every row writing only its
// own matrix row, so the fill is deterministic at any worker count — or,
// when a scaled sample's vectors exceed SlabBudgetBytes, chunk by chunk
// into a spill file, so the resident cost is the chunk, not the sample.
// All routes produce bit-identical vectors. src, when non-nil, is a code
// overlay (the coordinator's gathered shard codes) that replaces the
// model's own code source for the gather.
func (m *Model) rowVectors(rows rowSet, p *plan, scaled bool, src binning.CodeSource) (*f32.Slab, func(), error) {
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
		return f32.WrapSlab(full), func() {}, nil // the candidates are the table
	}
	if need := int64(rows.n) * int64(dim) * 4; scaled && p.scale.SlabBudgetBytes > 0 && need > p.scale.SlabBudgetBytes {
		slab, err := f32.NewSpillSlab(rows.n, dim, "")
		if err != nil {
			return nil, nil, err
		}
		chunkRows := min(slab.ChunkRows(), rows.n)
		buf := getVecBuf(chunkRows * dim)
		defer putVecBuf(buf)
		for start := 0; start < rows.n; start += chunkRows {
			end := min(start+chunkRows, rows.n)
			chunk := f32.Wrap(end-start, dim, (*buf)[:(end-start)*dim])
			m.gatherTupleVectors(chunk, rows.slice(start, end), p.cols, src)
			if err := slab.WriteChunk(start, chunk); err != nil {
				slab.Close()
				return nil, nil, err
			}
		}
		return slab, func() { slab.Close() }, nil
	}
	buf := getVecBuf(rows.n * dim)
	mat := f32.Wrap(rows.n, dim, *buf)
	if haveFull {
		f32.GatherRows(mat, full, rows.ids)
	} else {
		m.gatherTupleVectors(mat, rows, p.cols, src)
	}
	return f32.WrapSlab(mat), func() { putVecBuf(buf) }, nil
}

// gatherTupleVectors fills dst with the tuple-vectors of the given rows
// over cols. With resident codes it is the historical per-row parallel
// fill; for a store-backed binning it builds the gather-index slab in
// column-major block order — one sequential pass per column through the
// code store, the access pattern the store's layout is built for — and
// pools whole rows with the f32.MeanPoolRows kernel. Both paths compute
// identical vectors (same per-row index values, same pooling arithmetic).
// A non-nil src overrides where the codes are read (the coordinator
// overlay); otherwise the model's own inline codes or attached store.
func (m *Model) gatherTupleVectors(dst f32.Matrix, rows rowSet, cols []int, src binning.CodeSource) {
	if src == nil {
		if m.B.HasInlineCodes() {
			f32.ParallelRange(rows.n, f32.Workers(rows.n), func(start, end int) {
				idx := make([]int32, len(cols))
				for i := start; i < end; i++ {
					m.rowVectorInto(dst.Row(i), rows.at(i), cols, idx)
				}
			})
			return
		}
		src = m.B.Source()
	}
	k := len(cols)
	idx := make([]int32, rows.n*k)
	br := src.BlockRows()
	ids, lo := rows.ids, rows.lo // hoisted: these loops run once per sampled cell
	if rows.n*8 < src.NumRows() {
		// Sparse gather: the sampled rows touch a small fraction of every
		// block, so per-cell random access (a two-byte mmap load) beats
		// decoding whole blocks to use a sliver of each.
		f32.ParallelRange(rows.n, f32.Workers(rows.n), func(start, end int) {
			for i := start; i < end; i++ {
				r := lo + i
				if ids != nil {
					r = ids[i]
				}
				for j, c := range cols {
					idx[i*k+j] = m.itemRow[m.B.ItemOf(c, int(src.Code(c, r)))]
				}
			}
		})
	} else {
		var scratch []uint16
		for j, c := range cols {
			base := m.B.ItemOf(c, 0)
			blk := -1
			var codes []uint16
			for i := 0; i < rows.n; i++ {
				r := lo + i
				if ids != nil {
					r = ids[i]
				}
				if nb := r / br; nb != blk {
					blk = nb
					codes = src.ColumnBlock(c, blk, scratch)
					scratch = codes
				}
				idx[i*k+j] = m.itemRow[base+int32(codes[r-blk*br])]
			}
		}
	}
	f32.MeanPoolRows(dst, m.items, idx, k)
}
