// Package core implements SubTab, the paper's practical sub-table selection
// algorithm (Algorithm 2). It has the two phases of Figure 1:
//
//   - Preprocess: normalize and bin the table, build the tabular-sentence
//     corpus, and train a Word2Vec model over the binned cell items. Executed
//     once, when the table is loaded.
//   - Select: derive a vector per row (the average of its cell vectors) and
//     per column (the average of its cell vectors), k-means each, and take
//     the points nearest the centroids as the sub-table's rows and columns.
//     Executed per display — on the full table or on any query result, reusing
//     the pre-computed cell vectors, which is what makes query-time selection
//     interactive.
//
// Target columns (U*) are forced into the output and excluded from the
// column clustering, exactly as in Algorithm 2 lines 13-17.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"subtab/internal/binning"
	"subtab/internal/corpus"
	"subtab/internal/f32"
	"subtab/internal/rules"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// ColumnStrategy selects how the sub-table's columns are chosen.
type ColumnStrategy int

const (
	// PatternGroups (default) groups columns by their embedding-derived
	// association affinity — skip-gram input·output products approximate
	// PMI, so bins that co-occur score high — and spends the column budget
	// on whole groups, largest first. Rules span *associated* columns, so
	// co-selecting an associated group is what makes multi-column rules
	// coverable. This is an implementation refinement over Algorithm 2's
	// centroid step, which is under-determined on wide tables (column-mean
	// vectors wash out bin-level structure); see DESIGN.md.
	PatternGroups ColumnStrategy = iota
	// Centroids is the literal Algorithm 2 column step: k-means the
	// column-mean vectors into l−|U*| clusters and take the centroids.
	Centroids
)

// Options configures the SubTab pipeline.
type Options struct {
	// Bins configures binning (paper default: 5 bins, KDE valleys).
	Bins binning.Options
	// Corpus configures sentence construction (paper: 100K-sentence cap).
	Corpus corpus.Options
	// Embedding configures Word2Vec training.
	Embedding word2vec.Options
	// Columns selects the column-selection strategy.
	Columns ColumnStrategy
	// ClusterSeed drives the k-means initializations during selection.
	ClusterSeed int64
	// Scale configures the large-table selection mode (mini-batch k-means
	// over a stratified candidate sample above a row-count threshold). The
	// zero value keeps every selection on the exact path.
	Scale ScaleOptions
}

// Default returns the default settings: the paper's binning and corpus cap,
// tuple-sentences only (see DESIGN.md — column-sentences dilute the
// cross-column association signal), and pattern-group column selection.
func Default() Options {
	return Options{
		Bins:   binning.Options{MaxBins: 5, Strategy: binning.KDEValleys},
		Corpus: corpus.Options{MaxSentences: 100_000, TupleSentences: true},
	}
}

// Model is the output of pre-processing: the binned table plus one embedding
// vector per distinct (column, bin) item.
type Model struct {
	T   *table.Table
	B   *binning.Binned
	Emb *word2vec.Model
	Opt Options

	// items is a zero-copy view of the embedding's input-vector table;
	// itemRow[item] is the matrix row holding the item's vector, or -1 when
	// the item never appeared in the training corpus.
	items   f32.Matrix
	itemRow []int32

	// colAffinity is the flat mc×mc global association-affinity matrix
	// (entry [u*mc+w]), computed once at pre-processing time from the
	// embedding (symmetrized, frequency-weighted best bin match) and reused
	// by every selection.
	colAffinity []float64

	// binCounts[c][bin] is the cumulative number of rows of column c in each
	// bin — the integer form of the frequencies the affinity computation
	// weights by. Preprocess fills it; models restored from older persisted
	// formats rebuild it lazily (one scan of the bin codes). Append updates
	// it incrementally from the delta alone.
	binCountsOnce sync.Once
	binCounts     [][]int64

	// appendedSinceRebin counts rows ingested through the incremental
	// append path since the bin boundaries were last computed (Preprocess
	// or a rebin). Per-append drift checks cannot see slow cumulative
	// drift — each chunk is judged against a distribution that already
	// absorbed its predecessors — so Append also re-bins once this exceeds
	// the growth threshold, bounding staleness to one table-doubling at
	// default settings (classic amortization: the occasional full re-bin
	// stays O(1) per appended row).
	appendedSinceRebin int

	// sampleCache memoizes the scaled path's full-table candidate samples
	// by budget: the stratified reservoir is a pure function of (binning,
	// budget, seed), and warm serving issues many scaled selections over
	// the same model, so the one scan that dominates a scaled select's cost
	// runs once per (model, budget) instead of once per display.
	// Query-restricted selections always sample per call. sampleGen counts
	// cache mutations (under sampleMu) and orders the byte settles with the
	// governor (see governor.go).
	sampleMu    sync.Mutex
	sampleCache map[int][]int
	sampleGen   uint64

	// shardSampler, when set, produces scaled-path candidate samples for a
	// model whose shards are partly remote (the coordinator role; see
	// SetShardSampler). Nil on every locally complete model.
	shardSampler ShardSampler

	// cellSrc, when set, supplies rendered cells for view assembly instead of
	// the in-memory table — a paged column store (internal/colstore) or a
	// coordinator's over-the-wire shard gatherer. See AttachColumnStore.
	cellSrc table.CellSource

	// fullVecs caches the tuple-vectors of every row over all columns
	// (built lazily on the first selection that needs them). Full-table
	// displays — the warm serving steady state — reuse the matrix directly,
	// and row-subset selections over the full column set copy rows out of
	// it, because a tuple-vector depends only on the column set.
	//
	// All three fields are guarded by fullVecsMu; fullVecsReady is
	// additionally an atomic so readers can skip the mutex when the cache is
	// cold. The matrix's backing array is immutable once published, so
	// readers take a header copy under the mutex (cachedFullVecs) and may
	// keep using it after ReleaseVectorCache drops the model's reference —
	// eviction racing an in-flight selection is safe by construction (the
	// resettable sync.Once this replaces could tear mid-Do). fullVecsGen
	// counts publications/releases and orders the governor byte settles.
	fullVecsMu    sync.Mutex
	fullVecs      f32.Matrix
	fullVecsGen   uint64
	fullVecsReady atomic.Bool

	// gov, when set (SetGovernor), holds the memgov accounts the two caches
	// above settle their resident bytes with. See governor.go.
	gov atomic.Pointer[modelGov]
}

// indexItems builds the item-id → embedding-row index over the zero-copy
// vector matrix.
func (m *Model) indexItems() {
	m.items = m.Emb.VectorMatrix()
	m.itemRow = make([]int32, m.B.NumItems())
	for item := range m.itemRow {
		m.itemRow[item] = m.Emb.Index(int32(item))
	}
}

// Preprocess runs the pre-processing phase of Algorithm 2 on table t.
func Preprocess(t *table.Table, opt Options) (*Model, error) {
	b, err := binning.Bin(t, opt.Bins)
	if err != nil {
		return nil, fmt.Errorf("core: binning: %w", err)
	}
	sents := corpus.Build(b, opt.Corpus)
	emb := word2vec.Train(sents, opt.Embedding)
	m := &Model{T: t, B: b, Emb: emb, Opt: opt}
	m.indexItems()
	m.computeColumnAffinities()
	return m, nil
}

// Restore rebuilds a pre-processed model from its serialized parts (package
// modelio) without re-running Preprocess. colAffinity must be the flat
// matrix previously obtained from AffinityData; passing nil recomputes it
// (the only expensive step of restoration).
func Restore(t *table.Table, b *binning.Binned, emb *word2vec.Model, opt Options, colAffinity []float64) (*Model, error) {
	if b.T != t {
		return nil, fmt.Errorf("core: restore: binned representation does not wrap the given table")
	}
	m := &Model{T: t, B: b, Emb: emb, Opt: opt}
	m.indexItems()
	if colAffinity == nil {
		m.computeColumnAffinities()
		return m, nil
	}
	mc := t.NumCols()
	if len(colAffinity) != mc*mc {
		return nil, fmt.Errorf("core: restore: affinity matrix has %d entries, table with %d columns needs %d", len(colAffinity), mc, mc*mc)
	}
	m.colAffinity = colAffinity
	return m, nil
}

// AffinityData returns the precomputed column-affinity matrix as one flat
// row-major slice (entry [u*NumCols+w]). It aliases model memory and must
// not be mutated; it exists so the model can be serialized (package modelio)
// and restored without re-running the affinity computation.
func (m *Model) AffinityData() []float64 { return m.colAffinity }

// AffinityMatrix returns the column-affinity matrix as per-row views into
// the flat data, indexed by original column position. The rows alias model
// memory and must not be mutated.
func (m *Model) AffinityMatrix() [][]float64 {
	mc := m.T.NumCols()
	out := make([][]float64, mc)
	for i := range out {
		out[i] = m.colAffinity[i*mc : (i+1)*mc : (i+1)*mc]
	}
	return out
}

// computeColumnAffinities fills the global pairwise column-affinity matrix
// from the cumulative bin counts. Every (i,j) pair is independent and writes
// disjoint cells, so the upper triangle fans out across workers (dynamically
// scheduled — row i of the triangle costs O(mc−i)) with bit-identical
// results at any worker count.
func (m *Model) computeColumnAffinities() {
	m.colAffinity = m.affinityFromCounts(m.cachedBinCounts(), m.T.NumRows())
}

// cachedBinCounts returns the per-column per-bin row counts, computing them
// with one scan of the bin codes the first time they are needed (models
// restored from format versions that predate serialized counts).
func (m *Model) cachedBinCounts() [][]int64 {
	m.binCountsOnce.Do(func() {
		if m.binCounts != nil {
			return
		}
		mc := m.T.NumCols()
		counts := make([][]int64, mc)
		src := m.B.Source()
		f32.ParallelIndex(mc, f32.Workers(mc), func(c int) {
			f := make([]int64, m.B.Cols[c].NumBins())
			var scratch []uint16
			for blk := 0; blk < src.NumBlocks(); blk++ {
				codes := src.ColumnBlock(c, blk, scratch)
				scratch = codes
				for _, code := range codes {
					f[code]++
				}
			}
			counts[c] = f
		})
		m.binCounts = counts
	})
	return m.binCounts
}

// seedBinCounts installs externally known counts (modelio, Append) so the
// lazy scan never runs. It is a no-op once counts exist.
func (m *Model) seedBinCounts(counts [][]int64) {
	m.binCountsOnce.Do(func() { m.binCounts = counts })
}

// BinCountsData returns the cumulative per-column per-bin row counts (the
// integer form of the affinity frequencies). It aliases model memory and
// must not be mutated; it exists so the counts can be serialized (package
// modelio) and appends on a loaded model stay incremental.
func (m *Model) BinCountsData() [][]int64 { return m.cachedBinCounts() }

// AppendedSinceRebin returns the number of rows ingested incrementally
// since the bin boundaries were last computed (serialized by modelio so
// the growth-triggered re-bin survives a save/load cycle).
func (m *Model) AppendedSinceRebin() int { return m.appendedSinceRebin }

// SetAppendedSinceRebin installs the deserialized lineage counter on a
// freshly restored model (package modelio).
func (m *Model) SetAppendedSinceRebin(n int) error {
	if n < 0 || n > m.T.NumRows() {
		return fmt.Errorf("core: %d appended rows for a %d-row table", n, m.T.NumRows())
	}
	m.appendedSinceRebin = n
	return nil
}

// SeedBinCounts installs deserialized bin counts on a freshly restored
// model (package modelio). Counts must match the binning's shape; models
// with counts already computed ignore the call.
func (m *Model) SeedBinCounts(counts [][]int64) error {
	if len(counts) != len(m.B.Cols) {
		return fmt.Errorf("core: %d count columns for %d binned columns", len(counts), len(m.B.Cols))
	}
	for c := range counts {
		if len(counts[c]) != m.B.Cols[c].NumBins() {
			return fmt.Errorf("core: column %d has %d counts, %d bins", c, len(counts[c]), m.B.Cols[c].NumBins())
		}
	}
	m.seedBinCounts(counts)
	return nil
}

// affinityFromCounts computes the flat affinity matrix for the given
// cumulative counts over n rows. The frequency arithmetic (float64 count ×
// 1/n) reproduces the historical per-row accumulation bit for bit: counting
// in float64 is exact far beyond any table size, and the single multiply by
// the inverse is the same final operation.
func (m *Model) affinityFromCounts(counts [][]int64, n int) []float64 {
	mc := m.T.NumCols()
	inv := 1 / float64(max(1, n))
	freqs := make([][]float64, mc)
	for c := range freqs {
		f := make([]float64, len(counts[c]))
		for i, cnt := range counts[c] {
			f[i] = float64(cnt) * inv
		}
		freqs[c] = f
	}
	aff := make([]float64, mc*mc)
	f32.ParallelIndex(mc, f32.Workers(mc), func(i int) {
		for j := i + 1; j < mc; j++ {
			a := (m.directedAffinity(i, j, freqs[i]) + m.directedAffinity(j, i, freqs[j])) / 2
			aff[i*mc+j], aff[j*mc+i] = a, a
		}
	})
	return aff
}

// ColumnAffinity returns the global association affinity of two columns.
func (m *Model) ColumnAffinity(u, w int) float64 {
	if u == w {
		return 0
	}
	return m.colAffinity[u*m.T.NumCols()+w]
}

// ItemVector returns the embedding of a global item id (nil when unseen).
// The returned slice is a view into the embedding matrix.
func (m *Model) ItemVector(item int32) []float32 {
	if item < 0 || int(item) >= len(m.itemRow) {
		return nil
	}
	row := m.itemRow[item]
	if row < 0 {
		return nil
	}
	return m.items.Row(int(row))
}

// RowVector computes the tuple-vector of source row r over the given column
// indices: the component-wise average of its cell vectors (Alg. 2 line 9).
func (m *Model) RowVector(r int, cols []int) []float32 {
	v := make([]float32, m.Emb.Dim())
	m.rowVectorInto(v, r, cols, make([]int32, len(cols)))
	return v
}

// rowVectorInto writes row r's tuple-vector into v, using idx (len(cols))
// as gather scratch.
func (m *Model) rowVectorInto(v []float32, r int, cols []int, idx []int32) {
	for j, c := range cols {
		idx[j] = m.itemRow[m.B.Item(c, r)]
	}
	f32.MeanPoolInto(v, m.items, idx)
}

// ColVector computes the column-vector of column c over the given source
// rows: the average of its cell vectors (Alg. 2 line 14).
func (m *Model) ColVector(c int, rows []int) []float32 {
	v := make([]float32, m.Emb.Dim())
	idx := make([]int32, len(rows))
	for i, r := range rows {
		idx[i] = m.itemRow[m.B.Item(c, r)]
	}
	f32.MeanPoolInto(v, m.items, idx)
	return v
}

// directedAffinity measures how strongly column u's bins associate with
// column w: the frequency-weighted mean, over u's bins, of the best
// association with any of w's bins.
func (m *Model) directedAffinity(u, w int, uFreq []float64) float64 {
	b := m.B
	s, tot := 0.0, 0.0
	for bi, f := range uFreq {
		if f == 0 {
			continue
		}
		best := math.Inf(-1)
		for bj := 0; bj < b.Cols[w].NumBins(); bj++ {
			if a := m.Emb.Association(b.ItemOf(u, bi), b.ItemOf(w, bj)); a > best {
				best = a
			}
		}
		if math.IsInf(best, -1) {
			continue
		}
		s += f * best
		tot += f
	}
	if tot == 0 {
		return 0
	}
	return s / tot
}

// Highlight computes, for each sub-table row, one covered association rule
// to highlight (at most one per row, as in the paper's Figure 1 UI) and
// returns a cell predicate for table.Render plus the chosen rule index per
// row (-1 when none).
func Highlight(b *binning.Binned, rs []rules.Rule, st *SubTable) (func(r, ci int) bool, []int) {
	colPos := make(map[int]int, len(st.ColIdx)) // table col -> view col
	colSet := make(map[int]bool, len(st.ColIdx))
	for vi, c := range st.ColIdx {
		colPos[c] = vi
		colSet[c] = true
	}
	perRow := make([]int, len(st.SourceRows))
	mark := make(map[[2]int]bool)
	for vi, srcRow := range st.SourceRows {
		perRow[vi] = -1
		best, bestSize := -1, 0
		for ri := range rs {
			r := &rs[ri]
			if !r.Tuples.Contains(srcRow) {
				continue
			}
			ok := true
			for _, c := range r.Cols {
				if !colSet[c] {
					ok = false
					break
				}
			}
			if ok && len(r.Cols) > bestSize {
				best, bestSize = ri, len(r.Cols)
			}
		}
		perRow[vi] = best
		if best >= 0 {
			for _, c := range rs[best].Cols {
				mark[[2]int{vi, colPos[c]}] = true
			}
		}
	}
	return func(r, ci int) bool { return mark[[2]int{r, ci}] }, perRow
}
