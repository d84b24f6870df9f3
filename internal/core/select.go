package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/f32"
	"subtab/internal/metrics"
	"subtab/internal/query"
	"subtab/internal/table"
)

// The selection executor: SelectExplore is the one entry point of the
// selection phase (Alg. 2 lines 8-17). It plans the request (plan.go) and
// runs the plan's stages in order — bound the rows, sample if the scaled
// path engages, build tuple-vectors, cluster, pick representatives, choose
// columns, render. Refusals all come from the planner; what this file
// returns besides results are failures: I/O, a dead peer, a checksum
// mismatch, an empty match.

// SubTable is a selected k×l sub-table.
type SubTable struct {
	// SourceRows are the selected rows as indices into the original table.
	SourceRows []int
	// Cols are the selected column names, in original table order.
	Cols []string
	// ColIdx are the selected columns as indices into the original table.
	ColIdx []int
	// View is the rendered k×l table.
	View *table.Table
}

// AsMetricSubTable adapts the selection for the metrics package.
func (s *SubTable) AsMetricSubTable() metrics.SubTable {
	return metrics.SubTable{Rows: s.SourceRows, Cols: s.ColIdx}
}

// ErrNoRows is returned when a selection's candidate set is empty: the
// predicates (or the scope, or the query) match nothing.
var ErrNoRows = errors.New("core: no rows to select from")

// ExploreSpec is a selection request: which rows (the whole table, a
// predicate conjunction, a drill-down scope, or a full query), the
// sub-table shape, and — for exploration sessions — the coverage and
// weighting state. The zero spec plus K and L selects over the whole table
// (Q = NULL in Alg. 2).
type ExploreSpec struct {
	Where   []query.Predicate
	Scope   []int // sorted ascending source rows bounding the select; nil = whole table
	K, L    int
	Targets []string      // forced into the output and excluded from column clustering (U*)
	Scale   *ScaleOptions // nil uses the model's configured Options.Scale
	Covered *bitset.Set   // (column, bin) strata already shown this session
	ColBias []float64     // per-source-column score multiplier; nil = unbiased
	// Query selects over a query result instead of Where/Scope (with which
	// it cannot be combined). Where/Select/Limit queries stream: the
	// conjunction is compiled against the binning and evaluated over code
	// blocks, so paged and sharded tables filter without a resident copy.
	// Group-by and an order-by on a projected column need query.Apply over
	// resident cells and are refused on paged tables; each group is
	// represented by its first source row (aggregate cells have no
	// embedding).
	Query *query.Query
}

// Select runs the selection phase on the whole table (Q = NULL in Alg. 2).
func (m *Model) Select(k, l int, targets []string) (*SubTable, error) {
	return m.SelectExplore(ExploreSpec{K: k, L: l, Targets: targets})
}

// SelectQuery runs the selection phase on the result of q.
func (m *Model) SelectQuery(q *query.Query, k, l int, targets []string) (*SubTable, error) {
	return m.SelectExplore(ExploreSpec{Query: q, K: k, L: l, Targets: targets})
}

// caps snapshots what the planner may know about the model.
func (m *Model) caps() caps {
	src := m.ShardSource()
	return caps{
		rows:          m.T.NumRows(),
		dim:           m.Emb.Dim(),
		bins:          m.B.Cols,
		cellsResident: m.T.CellsResident(),
		columnStore:   m.cellSrc != nil,
		inlineCodes:   m.B.HasInlineCodes(),
		remote:        src != nil && !src.Complete(),
		sampler:       m.shardSampler != nil,
		columns:       m.Opt.Columns,
	}
}

func (m *Model) plan(spec ExploreSpec) (*plan, error) {
	if spec.Scale == nil {
		spec.Scale = &m.Opt.Scale
	}
	return planSelect(spec, m.caps())
}

// ReserveBytes is the transient working set a serving layer should reserve
// while spec runs on this model, or the refusal spec would meet.
func (m *Model) ReserveBytes(spec ExploreSpec) (int64, error) {
	p, err := m.plan(spec)
	if err != nil {
		return 0, err
	}
	return p.reserve, nil
}

// RequireLocal refuses a whole-table operation (reason names it: a session,
// a drill-down, an append, rule mining) on a model with remote shards.
func (m *Model) RequireLocal(reason Reason) error { return requireLocal(m.caps(), reason) }

// rowSet is a candidate row set. "Every row" is a fact — ids nil, rows
// lo..lo+n-1 — never an n-int identity slice.
type rowSet struct {
	lo, n int
	ids   []int
}

func allRows(n int) rowSet      { return rowSet{n: n} }
func listRows(ids []int) rowSet { return rowSet{n: len(ids), ids: ids} }

func (s rowSet) at(i int) int {
	if s.ids == nil {
		return s.lo + i
	}
	return s.ids[i]
}

func (s rowSet) slice(start, end int) rowSet {
	if s.ids == nil {
		return rowSet{lo: s.lo + start, n: end - start}
	}
	return listRows(s.ids[start:end])
}

// SelectExplore runs one selection. Deterministic: the result is a fixed
// function of (model, spec) on every store layout.
func (m *Model) SelectExplore(spec ExploreSpec) (*SubTable, error) {
	p, err := m.plan(spec)
	if err != nil {
		return nil, err
	}
	return m.execute(p, spec)
}

// execute runs p's stages in order.
func (m *Model) execute(p *plan, spec ExploreSpec) (*SubTable, error) {
	// Row stage: bound the candidates. csrc, when non-nil, is the
	// sampled-rows overlay of a coordinator model: every downstream code
	// read of this selection goes through it instead of the (partly remote)
	// shard source.
	var rows rowSet
	var csrc binning.CodeSource
	var err error
	n := 0
	if p.remote {
		sampled, overlay, matched, err := m.shardSampler.Sample(p.cols, p.scale.SampleBudget, p.preds)
		if err != nil {
			return nil, fmt.Errorf("core: scatter/gather sampling: %w", err)
		}
		rows, csrc, n = listRows(sampled), overlay, matched
	} else {
		if rows, err = m.candidateRows(p, spec); err != nil {
			return nil, err
		}
		n = rows.n
	}
	if n == 0 {
		return nil, ErrNoRows
	}

	// Row selection (Alg. 2 lines 8-12): cluster the tuple-vectors, then
	// pick one representative per cluster. Above the scale threshold the
	// candidate set is first cut to a deterministic stratified sample and
	// clustered with seeded mini-batch k-means; everything downstream
	// (diversity re-rank, column selection) runs over the sampled
	// candidates only, then maps representatives back to real row ids.
	scaled, err := p.scaled(n)
	if err != nil {
		return nil, err
	}
	if scaled && !p.remote {
		rows = m.sample(p, rows, spec.Covered)
	}
	slab, done, err := m.rowVectors(rows, p, scaled, csrc)
	if err != nil {
		return nil, fmt.Errorf("core: building tuple-vector slab: %w", err)
	}
	defer done()
	var res *cluster.Result
	if scaled {
		res = cluster.MiniBatchKMeansSource(slab, p.k, cluster.MiniBatchOptions{
			BatchSize: p.scale.BatchSize,
			MaxIter:   p.scale.MaxIter,
			Seed:      m.Opt.ClusterSeed,
		})
	} else {
		mat, _ := slab.Matrix() // exact-path slabs are always resident
		res = cluster.KMeansMatrix(mat, p.k, cluster.Options{Seed: m.Opt.ClusterSeed})
	}
	code := m.B.Code
	if csrc != nil {
		code = csrc.Code
	}
	st := &SubTable{}
	for _, i := range m.diverseRepresentatives(res, slab, rows, p.cols, 16, code) {
		st.SourceRows = append(st.SourceRows, rows.at(i))
	}

	// Column selection (lines 13-17): targets are forced; the rest of the
	// budget is spent by the plan's strategy. Column vectors average over
	// candidate rows: on the scaled path that is the stratified sample,
	// which keeps the column step O(SampleBudget) per column too.
	picked := p.targets // the plan is this request's own: grow its target set in place
	var candCols []int
	for _, c := range p.cols {
		if !picked[c] {
			candCols = append(candCols, c)
		}
	}
	if need := p.l - len(picked); need > 0 && len(candCols) > 0 {
		var more []int
		switch p.columns {
		case columnsBiased:
			more = m.biasedColumns(candCols, need, spec.ColBias)
		case columnsCentroid:
			more = m.centroidColumns(candCols, rows, need, code)
		default:
			more = m.patternGroupColumns(candCols, need)
		}
		for _, c := range more {
			picked[c] = true
		}
	}

	// Render the view with columns in original order.
	for c := 0; c < m.T.NumCols(); c++ {
		if picked[c] {
			st.ColIdx = append(st.ColIdx, c)
			st.Cols = append(st.Cols, m.T.ColumnAt(c).Name)
		}
	}
	if p.render == renderGather {
		// Paged cells: gather exactly the k×l selected cells out of the
		// column store (or over the wire) instead of indexing the table.
		st.View, err = table.GatherView(m.cellSrc, m.T.Name, st.SourceRows, st.ColIdx)
	} else {
		st.View, err = m.T.SubTableView(st.SourceRows, st.Cols)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// cand is a cluster member up for representative: its index among the
// clustered vectors and its squared distance to its cluster's centroid.
type cand struct {
	idx int
	d   float64
}

// byDistance orders candidates by centroid distance alone. Equal distances
// compare equal — never broken by idx: which of two duplicate rows comes
// first is then whatever the sort leaves, and the goldens were recorded with
// what sort.Slice leaves. slices.SortFunc, which swaps without reflection,
// leaves the same: the two are instances of one pdqsort template and take
// the same compare and swap sequence for a consistent order.
// TestCandidateSortMatchesSortSlice holds a toolchain to that.
func (a cand) byDistance(b cand) int {
	switch {
	case a.d < b.d:
		return -1
	case b.d < a.d:
		return 1
	}
	return 0
}

// diverseRepresentatives picks one row per cluster: among the q members
// nearest each cluster's centroid, the one with the lowest average binned
// Jaccard similarity (the measure of Def. 3.7) to the rows already picked —
// centrality keeps representatives typical of their pattern, the Jaccard
// tie-break keeps the displayed set diverse. Clusters are visited in
// descending size order; the first (dominant) cluster contributes its most
// central member. The per-point centroid distances and the per-candidate
// Jaccard scans run across workers; each slot is written by exactly one
// index and the final argmin scan is serial with first-wins ties, so the
// result is bit-identical to the serial path. The vectors arrive as a slab:
// resident slabs are scanned in place, spilled slabs chunk by chunk, with
// identical distances either way. code is where the Jaccard comparisons
// read their codes.
func (m *Model) diverseRepresentatives(res *cluster.Result, vecs *f32.Slab, rows rowSet, cols []int, q int, code func(c, r int) uint16) []int {
	if res.K == 0 {
		return nil
	}
	n := vecs.Len()
	ds := make([]float64, n)
	if mat, resident := vecs.Matrix(); resident {
		f32.ParallelRange(n, f32.Workers(n), func(start, end int) {
			for i := start; i < end; i++ {
				ds[i] = f32.SqDist(mat.Row(i), res.Centers[res.Assign[i]])
			}
		})
	} else {
		chunkRows := min(vecs.ChunkRows(), n)
		buf := f32.New(chunkRows, vecs.Dim())
		for start := 0; start < n; start += chunkRows {
			cn := min(chunkRows, n-start)
			chunk := f32.Wrap(cn, vecs.Dim(), buf.Data[:cn*vecs.Dim()])
			vecs.ReadChunk(start, chunk)
			f32.ParallelRange(cn, f32.Workers(cn), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ds[start+i] = f32.SqDist(chunk.Row(i), res.Centers[res.Assign[start+i]])
				}
			})
		}
	}
	cands := make([][]cand, res.K)
	for i := 0; i < n; i++ {
		c := res.Assign[i]
		cands[c] = append(cands[c], cand{i, ds[i]})
	}
	for c := range cands {
		slices.SortFunc(cands[c], cand.byDistance)
		if len(cands[c]) > q {
			cands[c] = cands[c][:q]
		}
	}
	order := make([]int, res.K)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if res.Sizes[order[x]] != res.Sizes[order[y]] {
			return res.Sizes[order[x]] > res.Sizes[order[y]]
		}
		return order[x] < order[y]
	})
	jaccard := func(r1, r2 int) float64 {
		if len(cols) == 0 {
			return 0
		}
		same := 0
		for _, c := range cols {
			if code(c, r1) == code(c, r2) {
				same++
			}
		}
		return float64(same) / float64(len(cols))
	}
	sims := make([]float64, q)
	var out []int
	for _, c := range order {
		if len(cands[c]) == 0 {
			continue
		}
		if len(out) == 0 {
			out = append(out, cands[c][0].idx)
			continue
		}
		cs := cands[c]
		f32.ParallelIndex(len(cs), f32.Workers(len(cs)), func(x int) {
			sim := 0.0
			for _, sel := range out {
				sim += jaccard(rows.at(cs[x].idx), rows.at(sel))
			}
			sims[x] = sim / float64(len(out))
		})
		best, bestSim := -1, math.Inf(1)
		for x := range cs {
			if sims[x] < bestSim {
				best, bestSim = cs[x].idx, sims[x]
			}
		}
		out = append(out, best)
	}
	return out
}

// fullRowVectors lazily builds the tuple-vector matrix of every row over
// the full column set, filled in parallel with disjoint per-row writes. The
// arithmetic per row is exactly rowVectorInto's, so cached vectors are
// bit-identical to freshly computed ones. The build runs under fullVecsMu
// (single-flight: concurrent first selections block instead of building
// twice), and the returned matrix header stays valid even if
// ReleaseVectorCache evicts the cache mid-selection — callers hold their
// own reference to the immutable backing array.
func (m *Model) fullRowVectors() f32.Matrix {
	if mat, ok := m.cachedFullVecs(); ok {
		return mat
	}
	m.fullVecsMu.Lock()
	if m.fullVecsReady.Load() {
		mat := m.fullVecs
		m.fullVecsMu.Unlock()
		return mat
	}
	n := m.T.NumRows()
	cols := make([]int, m.T.NumCols())
	for i := range cols {
		cols[i] = i
	}
	mat := f32.New(n, m.Emb.Dim())
	f32.ParallelRange(n, f32.Workers(n), func(start, end int) {
		idx := make([]int32, len(cols))
		for r := start; r < end; r++ {
			m.rowVectorInto(mat.Row(r), r, cols, idx)
		}
	})
	m.fullVecs = mat
	m.fullVecsReady.Store(true)
	m.fullVecsGen++
	gen := m.fullVecsGen
	m.fullVecsMu.Unlock()
	// Settle outside the mutex: the grow may trigger store eviction, whose
	// callback takes model mutexes. A release racing this settle wins by
	// generation (its higher gen discards this one).
	m.vecAccount().Settle(gen, int64(len(mat.Data))*4)
	return mat
}

// cachedFullVecs returns a header copy of the warm full-table vector cache,
// or ok=false when it is cold. The copy remains valid after a concurrent
// ReleaseVectorCache (the backing array is immutable once published).
func (m *Model) cachedFullVecs() (f32.Matrix, bool) {
	if !m.fullVecsReady.Load() {
		return f32.Matrix{}, false
	}
	m.fullVecsMu.Lock()
	mat, ok := m.fullVecs, m.fullVecsReady.Load()
	m.fullVecsMu.Unlock()
	return mat, ok
}

// seedFullVecs installs a pre-built full-table tuple-vector matrix (the
// append path extends the previous model's warm cache). No-op if a cache is
// already published.
func (m *Model) seedFullVecs(mat f32.Matrix) {
	m.fullVecsMu.Lock()
	if m.fullVecsReady.Load() {
		m.fullVecsMu.Unlock()
		return
	}
	m.fullVecs = mat
	m.fullVecsReady.Store(true)
	m.fullVecsGen++
	gen := m.fullVecsGen
	m.fullVecsMu.Unlock()
	m.vecAccount().Settle(gen, int64(len(mat.Data))*4)
}

// vecBufPool recycles the flat tuple-vector slab across Selects: warm
// serving issues many selections over the same model, and the slab (rows ×
// dim floats) is by far the largest per-request allocation.
var vecBufPool = sync.Pool{New: func() any { return new([]float32) }}

func getVecBuf(n int) *[]float32 {
	buf := vecBufPool.Get().(*[]float32)
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return buf
}

func putVecBuf(buf *[]float32) { vecBufPool.Put(buf) }
