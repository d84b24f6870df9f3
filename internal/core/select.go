package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/f32"
	"subtab/internal/memgov"
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

// ErrNoColumns is returned by Preprocess for a table without columns: it
// has nothing to bin, embed or display.
var ErrNoColumns = errors.New("core: table has no columns")

// ExploreSpec is a selection request: which rows (the whole table, a
// predicate conjunction, a drill-down scope, or a full query), the
// sub-table shape, and — for exploration sessions — the coverage and
// weighting state. The zero spec plus K and L selects over the whole table
// (Q = NULL in Alg. 2). Such a stateless whole-table spec — no Where,
// Scope, Covered, ColBias or Query, on a model whose shards are all local
// — is an overview: its choice of rows and columns is memoized in the
// model's overview memo per (K, L, Targets, Scale, Fairness), so repeating
// it renders only. Models of one table generation may share the memo
// (ShareOverviews).
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
	// Group-by and an order-by on a projected column run query.Apply over
	// the typed cells — on a paged table, over a private resident copy;
	// each group is represented by its first source row (aggregate cells
	// have no embedding).
	Query *query.Query
	// Fairness, when set, makes every group of a protected column appear
	// in the display; FairnessOptions states the quota rule.
	Fairness *FairnessOptions
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
		rows:    m.T.NumRows(),
		dim:     m.Emb.Dim(),
		bins:    m.B.Cols,
		paged:   m.OutOfCore(),
		remote:  src != nil && !src.Complete(),
		sampler: m.shardSampler != nil,
		columns: m.Opt.Columns,
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

// list returns the row ids, materializing a range.
func (s rowSet) list() []int {
	if s.ids != nil {
		return s.ids
	}
	ids := make([]int, s.n)
	for i := range ids {
		ids[i] = s.lo + i
	}
	return ids
}

// SelectExplore runs one selection. Deterministic: the result is a fixed
// function of (model, spec) on every store layout. An overview spec (see
// ExploreSpec) chooses once per overview memo and shape and then renders
// from the memo; every call returns a SubTable of its own.
func (m *Model) SelectExplore(spec ExploreSpec) (*SubTable, error) {
	p, err := m.plan(spec)
	if err != nil {
		return nil, err
	}
	return m.execute(p, spec)
}

// clusterRows runs the row stage and, when the scaled path engages, the
// sample. It returns the rows the selection clusters, the sampled-rows
// overlay of a coordinator model (nil otherwise: every downstream code read
// of the selection goes through it instead of the partly remote shard
// source), and whether the path is scaled.
func (m *Model) clusterRows(p *plan, spec ExploreSpec) (rows rowSet, csrc binning.CodeSource, scaled bool, err error) {
	n := 0
	if p.remote {
		sampled, overlay, matched, err := m.shardSampler.Sample(p.cols, p.scale.SampleBudget, p.preds)
		if err != nil {
			return rowSet{}, nil, false, fmt.Errorf("core: scatter/gather sampling: %w", err)
		}
		rows, csrc, n = listRows(sampled), overlay, matched
	} else {
		if rows, err = m.candidateRows(p, spec); err != nil {
			return rowSet{}, nil, false, err
		}
		n = rows.n
	}
	if n == 0 {
		return rowSet{}, nil, false, ErrNoRows
	}
	// Above the scale threshold the candidate set is cut to a deterministic
	// stratified sample and clustered with seeded mini-batch k-means;
	// everything downstream (diversity re-rank, column selection) runs over
	// the sampled candidates only, then maps representatives back to real
	// row ids.
	if scaled, err = p.scaled(n); err != nil {
		return rowSet{}, nil, false, err
	}
	if scaled && !p.remote {
		rows = m.sample(p, rows, spec.Covered)
	}
	return rows, csrc, scaled, nil
}

// overview is what a selection chooses, before it renders: the source rows
// and the column indices of its k×l sub-table.
type overview struct {
	rows, cols []int
}

func (ov overview) clone() overview {
	return overview{rows: slices.Clone(ov.rows), cols: slices.Clone(ov.cols)}
}

// overviewBytes is a memo entry's residency: its slot (the key and the two
// slice headers), the key's target string — a short string still pins a
// 16-byte block — and the two index arrays.
func overviewBytes(k overviewKey, ov overview) int64 {
	return int64(unsafe.Sizeof(k)+unsafe.Sizeof(ov)) + int64(len(k.targets)+15)&^15 + int64(cap(ov.rows)+cap(ov.cols))*8
}

// OverviewMemo is a model's memo of overview choices (see ExploreSpec).
// An overview is a pure function of the model's file, so every model
// loaded from one file — one table generation — can share one memo: a
// serving store keeps it while the generation's models are evicted and
// reloaded, and hands it to each (ShareOverviews). Clear empties it and
// settles it to zero bytes; Bytes reports what it holds.
type OverviewMemo = memgov.Cache[overviewKey, overview]

// ShareOverviews makes memo m's overview memo, in place of its own, and
// returns the memo m uses from then on; a nil memo keeps m's own, so
// ShareOverviews(nil) reads it. memo must come from a model of the same
// table generation — loaded from the same file, or the model that file
// was saved from — since a memo hit skips the choice. Selections already
// running on m finish on the memo they started with.
func (m *Model) ShareOverviews(memo *OverviewMemo) *OverviewMemo {
	if memo != nil {
		m.overviews.Store(memo)
	}
	return m.overviews.Load()
}

// execute runs p's stages in order: choose, then render. An overview plan
// takes its choice from the model's memo, so a repeated overview costs
// planning plus one k×l render; every caller still gets its own SubTable.
func (m *Model) execute(p *plan, spec ExploreSpec) (*SubTable, error) {
	var ov overview
	var err error
	if p.overview {
		ov, err = m.overviews.Load().Fill(p.overviewKey(), func() (overview, error) {
			m.overviewFills.Add(1)
			ov, err := m.choose(p, spec)
			return ov.clone(), err // the memo keeps arrays of exactly k and l
		})
		ov = ov.clone()
	} else {
		ov, err = m.choose(p, spec)
	}
	if err != nil {
		return nil, err
	}
	return m.render(ov)
}

// choose runs every stage of p but the render: rows, sample, vectors,
// k-means, representatives and columns.
func (m *Model) choose(p *plan, spec ExploreSpec) (overview, error) {
	rows, csrc, scaled, err := m.clusterRows(p, spec)
	if err != nil {
		return overview{}, err
	}

	// Row selection (Alg. 2 lines 8-12): cluster the tuple-vectors, then
	// pick one representative per cluster.
	mat, done := m.rowVectors(rows, p, scaled, csrc)
	defer done()
	var res *cluster.Result
	if scaled {
		res = cluster.MiniBatchKMeans(mat, p.k, cluster.MiniBatchOptions{
			BatchSize: p.scale.BatchSize,
			MaxIter:   p.scale.MaxIter,
			Seed:      m.Opt.ClusterSeed,
		})
	} else {
		res = cluster.KMeansMatrix(mat, p.k, cluster.Options{Seed: m.Opt.ClusterSeed})
	}
	src := csrc
	if src == nil {
		src = m.B.Source()
	}
	reps := m.diverseRepresentatives(res, rows, p.cols, 16, src)
	if p.quotaMin > 0 {
		groupQuota(reps, res, rows, p.quotaCol, p.quotaMin, m.B.Cols[p.quotaCol].NumBins(), src)
	}
	var ov overview
	for _, i := range reps {
		ov.rows = append(ov.rows, rows.at(i))
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
			more = m.centroidColumns(candCols, rows, need, src)
		default:
			more = m.patternGroupColumns(candCols, need)
		}
		for _, c := range more {
			picked[c] = true
		}
	}
	// Columns in original order.
	for c := 0; c < m.T.NumCols(); c++ {
		if picked[c] {
			ov.cols = append(ov.cols, c)
		}
	}
	return ov, nil
}

// render gathers ov's k×l view. st takes ov's slices.
func (m *Model) render(ov overview) (*SubTable, error) {
	st := &SubTable{SourceRows: ov.rows, ColIdx: ov.cols}
	for _, c := range ov.cols {
		st.Cols = append(st.Cols, m.T.ColumnAt(c).Name)
	}
	var err error
	if st.View, err = table.GatherView(m.cells(), m.T.Name, st.SourceRows, st.ColIdx); err != nil {
		return nil, err
	}
	return st, nil
}

// diverseRepresentatives picks one row per cluster: among the q members
// nearest each cluster's centroid, the one with the lowest average binned
// Jaccard similarity (the measure of Def. 3.7) to the rows already picked —
// centrality keeps representatives typical of their pattern, the Jaccard
// tie-break keeps the displayed set diverse. Clusters are visited in
// descending size order; the first (dominant) cluster contributes its most
// central member. The q members come from res.Closest, ordered by centroid
// distance with ties to the lowest candidate index, and the Jaccard argmin
// keeps the first of equal scores; so of two identical rows the one at the
// lower candidate index is displayed. That is the lower source row, except
// under an order-by query, whose candidates come in the query's order. The
// Jaccard comparisons read the members' codes from src, gathered once per
// column before any comparison. The per-candidate Jaccard scans run across
// workers, each slot written by exactly one index, so the result is
// bit-identical to the serial path.
func (m *Model) diverseRepresentatives(res *cluster.Result, rows rowSet, cols []int, q int, src binning.CodeSource) []int {
	if res.K == 0 {
		return nil
	}
	cands := res.Closest(q)
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
	// The members of every cluster, laid out cluster by cluster: cluster c's
	// x-th member is member first[c]+x. codes holds member i's codes over
	// cols at [i*k, (i+1)*k).
	first := make([]int, len(cands))
	var ids []int
	for c, cs := range cands {
		first[c] = len(ids)
		for _, x := range cs {
			ids = append(ids, rows.at(x))
		}
	}
	k := len(cols)
	codes := make([]uint16, len(ids)*k)
	col := make([]uint16, len(ids))
	for j, c := range cols {
		src.GatherCodes(c, ids, col)
		for i, code := range col {
			codes[i*k+j] = code
		}
	}
	jaccard := func(a, b int) float64 {
		if k == 0 {
			return 0
		}
		same := 0
		for j, code := range codes[a*k : (a+1)*k] {
			if code == codes[b*k+j] {
				same++
			}
		}
		return float64(same) / float64(k)
	}
	sims := make([]float64, q)
	var out, picked []int // picked[i] is out[i]'s member index
	for _, c := range order {
		cs := cands[c]
		if len(cs) == 0 {
			continue
		}
		if len(out) == 0 {
			out, picked = append(out, cs[0]), append(picked, first[c])
			continue
		}
		f32.ParallelIndex(len(cs), f32.Workers(len(cs)), func(x int) {
			sim := 0.0
			for _, sel := range picked {
				sim += jaccard(first[c]+x, sel)
			}
			sims[x] = sim / float64(len(out))
		})
		best, bestSim := -1, math.Inf(1)
		for x := range cs {
			if sims[x] < bestSim {
				best, bestSim = x, sims[x]
			}
		}
		out, picked = append(out, cs[best]), append(picked, first[c]+best)
	}
	return out
}

// fullRowVectors lazily builds the tuple-vector matrix of every row over
// the full column set with gatherTupleVectors, so cached vectors are
// bit-identical to freshly computed ones. The build is single-flight
// (concurrent first selections wait instead of building twice), and the
// returned matrix header stays valid even if ReleaseVectorCache evicts the
// cache mid-selection — callers hold their own reference to the immutable
// backing array.
func (m *Model) fullRowVectors() f32.Matrix {
	mat, _ := m.vecs.Fill(struct{}{}, func() (f32.Matrix, error) {
		n := m.T.NumRows()
		cols := make([]int, m.T.NumCols())
		for i := range cols {
			cols[i] = i
		}
		mat := f32.New(n, m.Emb.Dim())
		m.gatherTupleVectors(mat, allRows(n), cols, nil)
		return mat, nil
	})
	return mat
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
