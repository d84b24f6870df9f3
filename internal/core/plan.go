package core

import (
	"fmt"
	"slices"

	"subtab/internal/binning"
	"subtab/internal/query"
)

// The selection planner. Alg. 2's selection phase is one procedure — bound
// the rows, cluster tuple-vectors, pick representatives, choose columns,
// render k×l — applied at different scopes over different store layouts.
// planSelect turns a request (ExploreSpec) and what the model can do (caps)
// into either a typed Refusal or a plan: one variant per stage. It is a pure
// function of values — no model, no I/O — so the whole capability matrix is
// one table test (TestPlanMatrix), and every "this layout cannot serve that
// request" message in the system is built in this file.

// Stage names one timed, cancellable, explainable region of a selection.
// The list is fixed: later instruments key on these names.
type Stage string

const (
	StageFilterCompile    Stage = "filter-compile"
	StageFilterScan       Stage = "filter-scan"
	StageResidualGather   Stage = "residual-gather"
	StageMaterialize      Stage = "materialize"
	StageShardScatter     Stage = "shard-scatter"
	StageShardMerge       Stage = "shard-merge"
	StageStratifiedSample Stage = "stratified-sample"
	StageVectorBuild      Stage = "vector-build"
	StageKMeans           Stage = "k-means"
	StageRepresentatives  Stage = "representatives"
	StageColumnChoice     Stage = "column-choice"
	StageRenderGather     Stage = "render-gather"
)

// One variant per stage; the strings are the capability matrix's vocabulary.
type (
	rowSource      string // how the candidate rows are bound
	residualSource string // where a non-exact filter resolves its bin-boundary rows
	sampleKind     string // how the scaled path cuts the candidates to the sample budget
	vectorKind     string // where the exact path's tuple-vectors come from (the scaled path builds a sampled slab)
	columnKind     string
	renderKind     string
)

const (
	rowsAll           rowSource = "all"            // Q = NULL: every row, held as a fact, not a slice
	rowsScope         rowSource = "scope"          // a drill-down neighborhood, used as given
	rowsFilter        rowSource = "filter"         // streaming predicate scan
	rowsFilterScope   rowSource = "filter∩scope"   // streaming scan, kept inside the scope
	rowsFilterLimit   rowSource = "filter+limit"   // streaming scan, first Limit matches
	rowsMaterialize   rowSource = "materialize"    // query.Apply over resident cells (group-by, effective order-by)
	rowsShardPushdown rowSource = "shard-pushdown" // peers filter inside their shard scans; the rows never exist here

	residualNone     residualSource = ""         // exact filter: no cell reads
	residualResident residualSource = "resident" // the in-memory columns
	residualStore    residualSource = "store"    // batched gathers through the column store

	sampleCached  sampleKind = "cached"         // whole table, all columns, unbiased: memoized per budget
	sampleScan    sampleKind = "scan"           // per-call stratified reservoir over the candidates
	sampleCovered sampleKind = "covered-biased" // per-call, covered strata deprioritized
	sampleScatter sampleKind = "scatter"        // the installed shard sampler (local scans + peers)

	vectorsFullCache vectorKind = "full-cache" // the model's full-table matrix (all columns, inline codes)
	vectorsGather    vectorKind = "gather"     // computed per request for exactly the candidates

	columnsPatternGroup columnKind = "pattern-group"
	columnsCentroid     columnKind = "centroid"
	columnsBiased       columnKind = "biased"

	renderResident renderKind = "resident" // index the in-memory table
	renderGather   renderKind = "gather"   // gather k×l cells through the cell source
)

// Reason classifies a Refusal. One constant per row of the capability
// matrix that says no.
type Reason string

const (
	ReasonBadShape       Reason = "bad-shape"              // k or l not positive
	ReasonUnknownTarget  Reason = "unknown-target"         // a target column the table does not have
	ReasonTooManyTargets Reason = "too-many-targets"       // more targets than l
	ReasonBadSpec        Reason = "bad-spec"               // malformed spec or query
	ReasonCellsPaged     Reason = "cells-paged"            // group-by / order-by needs resident cells
	ReasonNoCells        Reason = "no-residual-cells"      // residual predicate, no cells to check it on
	ReasonNoSampler      Reason = "remote-no-sampler"      // remote shards, no coordinator sampler
	ReasonRemoteUnscaled Reason = "remote-unscaled"        // remote shards serve the scaled path only
	ReasonUnderThreshold Reason = "remote-under-threshold" // pushdown matched fewer rows than the threshold
	ReasonRemoteScope    Reason = "remote-scope"
	ReasonRemoteLimit    Reason = "remote-limit"
	ReasonRemoteBias     Reason = "remote-bias"      // covered strata or column bias
	ReasonRemotePartial  Reason = "remote-partial"   // projection or a materialized row subset
	ReasonRemoteSession  Reason = "remote-session"   // serve.CreateSession
	ReasonRemoteDrill    Reason = "remote-drilldown" // Model.Neighborhood
	ReasonRemoteAppend   Reason = "remote-append"
	ReasonRemoteRules    Reason = "remote-rules"
)

// Refusal is a request the model's layout cannot serve, or a spec that is
// not a valid request at all. It is the caller's to fix — serving layers
// map it to 400 — unlike the executor's failures (I/O, a dead peer, a
// checksum mismatch), which keep their own error chains.
type Refusal struct {
	Reason Reason
	Msg    string
}

func (r *Refusal) Error() string { return "core: " + r.Msg }

// Unwrap keeps errors.Is(err, query.ErrCellsPaged) true for the paged-table
// refusal, which callers test to steer a query back to the streaming subset.
func (r *Refusal) Unwrap() error {
	if r.Reason == ReasonCellsPaged {
		return query.ErrCellsPaged
	}
	return nil
}

func refuse(reason Reason, format string, args ...any) *Refusal {
	return &Refusal{Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// caps is everything planSelect may know about a model: sizes, the binning
// schema (column names, kinds and bin boundaries — no codes), and which of
// its parts are resident, paged or remote.
type caps struct {
	rows          int
	dim           int
	bins          []binning.ColumnBins
	cellsResident bool // raw cells in memory: query.Apply can run
	columnStore   bool // a cell source is attached: views and residual checks gather through it
	inlineCodes   bool // bin codes in memory: the full-table vector cache is allowed
	remote        bool // sharded, and some shards are held by peers
	sampler       bool // a ShardSampler is installed
	columns       ColumnStrategy
}

func (c caps) col(name string) int {
	for i := range c.bins {
		if c.bins[i].Col == name {
			return i
		}
	}
	return -1
}

// requireLocal refuses a whole-table operation on a model whose shards are
// partly remote: sessions, drill-downs, appends and rule mining all read
// every code block.
func requireLocal(c caps, reason Reason) error {
	if !c.remote {
		return nil
	}
	where := "on the shard owners"
	if reason == ReasonRemoteSession || reason == ReasonRemoteDrill {
		where = "on an instance holding every shard"
	}
	return refuse(reason, "table has remote shards; run this %s", where)
}

// residualFor picks where filter f resolves its bin-boundary rows. Exact
// filters read no cells, so husk tables without any cell source still
// filter when every predicate is cut-aligned.
func residualFor(c caps, f *binning.Filter) (residualSource, error) {
	switch {
	case f.Exact():
		return residualNone, nil
	case c.cellsResident:
		return residualResident, nil
	case c.columnStore:
		return residualStore, nil
	}
	return "", refuse(ReasonNoCells, "residual predicate checks need resident cells or an attached column store")
}

// plan is planSelect's answer: the resolved shape plus one variant per
// stage. sample is what runs if the scaled path engages, vectors what runs
// if it does not; which of the two it is depends on the candidate count and
// is the one decision left to run time (see scaled).
type plan struct {
	k, l    int
	targets map[int]bool
	cols    []int // working columns, in projection order
	allCols bool  // cols is every column, in table order
	limit   int

	rows     rowSource
	preds    []query.Predicate
	filter   *binning.Filter // preds compiled (the three filter row sources)
	residual residualSource
	sample   sampleKind
	vectors  vectorKind
	columns  columnKind
	render   renderKind

	scale   ScaleOptions // defaults applied
	remote  bool
	reserve int64
}

// scaled is the one data-dependent decision of a selection: whether a
// candidate set of n rows (after the row stage; for a pushdown, the matched
// count the peers report) clusters a stratified sample with mini-batch
// k-means or every candidate exactly.
func (p *plan) scaled(n int) (bool, error) {
	if p.scale.Active(n) {
		return true, nil
	}
	if p.remote {
		return false, refuse(ReasonUnderThreshold, "a table with remote shards serves scaled selections only (%d matching rows under threshold %d)", n, p.scale.Threshold)
	}
	return false, nil
}

// stages lists what the plan runs, in order, for a candidate set of n rows.
func (p *plan) stages(n int) ([]Stage, error) {
	scaled, err := p.scaled(n)
	if err != nil {
		return nil, err
	}
	var out []Stage
	switch p.rows {
	case rowsFilter, rowsFilterScope, rowsFilterLimit:
		out = append(out, StageFilterCompile, StageFilterScan)
		if p.residual != residualNone {
			out = append(out, StageResidualGather)
		}
	case rowsMaterialize:
		out = append(out, StageMaterialize)
	}
	switch {
	case p.remote:
		out = append(out, StageShardScatter, StageShardMerge)
	case scaled:
		out = append(out, StageStratifiedSample)
	}
	return append(out, StageVectorBuild, StageKMeans, StageRepresentatives, StageColumnChoice, StageRenderGather), nil
}

// streamable reports whether q runs on the streaming path: pure conjunction
// + projection + limit. Group-by synthesizes aggregate rows, and an
// effective order-by (naming a projected column) permutes the row order
// feeding clustering; both need query.Apply's resident-cell evaluation. An
// order-by naming a column outside the projection is a no-op in Apply, so
// it does not block streaming.
func streamable(q *query.Query, c caps) bool {
	switch {
	case len(q.GroupBy) > 0:
		return false
	case q.OrderBy == "":
		return true
	case len(q.Select) == 0:
		return c.col(q.OrderBy) < 0
	}
	return !slices.Contains(q.Select, q.OrderBy)
}

// workingCols resolves a list of column names (a projection, or group-by
// keys) with query.Apply's errors — unknown or duplicate names — reproduced.
func workingCols(names []string, c caps) ([]int, error) {
	cols := make([]int, 0, len(names))
	seen := make(map[int]bool, len(names))
	for _, name := range names {
		ci := c.col(name)
		if ci < 0 {
			return nil, refuse(ReasonBadSpec, "applying query: unknown column %q", name)
		}
		if seen[ci] {
			return nil, refuse(ReasonBadSpec, "applying query: duplicate column %q", name)
		}
		seen[ci] = true
		cols = append(cols, ci)
	}
	return cols, nil
}

// badQuery wraps a query.Apply failure: over resident cells Apply is a pure
// function of (table, query), so its errors are the query's.
func badQuery(err error) error {
	return refuse(ReasonBadSpec, "applying query: %v", err)
}

// planSelect validates spec against c and chooses one variant per stage.
// spec.Scale must be set (the caller resolves nil to the model's default).
func planSelect(spec ExploreSpec, c caps) (*plan, error) {
	p := &plan{k: spec.K, l: spec.L, rows: rowsAll, scale: spec.Scale.withDefaults(), remote: c.remote}
	if spec.K <= 0 || spec.L <= 0 {
		return nil, refuse(ReasonBadShape, "sub-table dimensions must be positive, got %dx%d", spec.K, spec.L)
	}
	p.targets = make(map[int]bool, len(spec.Targets))
	for _, name := range spec.Targets {
		ci := c.col(name)
		if ci < 0 {
			return nil, refuse(ReasonUnknownTarget, "unknown target column %q", name)
		}
		p.targets[ci] = true
	}
	if len(p.targets) > spec.L {
		return nil, refuse(ReasonTooManyTargets, "%d target columns exceed l=%d", len(p.targets), spec.L)
	}
	for i, r := range spec.Scope {
		if r < 0 || r >= c.rows || i > 0 && r <= spec.Scope[i-1] {
			return nil, refuse(ReasonBadSpec, "scope rows must be ascending, duplicate-free and inside [0, %d)", c.rows)
		}
	}

	// Row source and working columns.
	p.preds = spec.Where
	var names []string
	if q := spec.Query; q != nil {
		switch {
		case len(spec.Where) > 0 || spec.Scope != nil:
			return nil, refuse(ReasonBadSpec, "a spec carries either a query or where/scope, not both")
		case streamable(q, c):
			p.preds, names, p.limit = q.Where, q.Select, max(q.Limit, 0)
		case !c.cellsResident:
			return nil, refuse(ReasonCellsPaged, "query %q needs group-by/aggregate/order-by evaluation over raw cells, which this paged table does not hold; enable streaming predicates by restricting the query to where/select/limit", q.String())
		default:
			// Aggregate columns do not exist in the table and have no
			// embedding: a group-by works over its key columns.
			p.rows = rowsMaterialize
			if names = q.Select; len(q.GroupBy) > 0 {
				names = q.GroupBy
			}
		}
	}
	switch {
	case p.rows == rowsMaterialize:
	case p.remote && len(p.preds) > 0:
		p.rows = rowsShardPushdown
	case p.limit > 0:
		p.rows = rowsFilterLimit
	case len(p.preds) > 0 && spec.Scope != nil:
		p.rows = rowsFilterScope
	case len(p.preds) > 0:
		p.rows = rowsFilter
	case spec.Scope != nil:
		p.rows = rowsScope
	}
	if len(names) > 0 {
		var err error
		if p.cols, err = workingCols(names, c); err != nil {
			return nil, err
		}
	} else {
		p.allCols = true
		p.cols = make([]int, len(c.bins))
		for i := range p.cols {
			p.cols[i] = i
		}
	}

	// A model with remote shards cannot read arbitrary cells; the only
	// selections it can serve are the scaled paths whose reads all resolve
	// through the scatter/gather sampler's overlay: the full-table scan, or
	// a predicate pushdown (each peer filters its own rows before scanning).
	if p.remote {
		switch {
		case spec.Scope != nil:
			return nil, refuse(ReasonRemoteScope, "drill-down scopes need the table's shards local")
		case p.limit > 0:
			return nil, refuse(ReasonRemoteLimit, "a row limit is not supported on tables with remote shards")
		case !c.sampler:
			return nil, refuse(ReasonNoSampler, "table has remote shards and no shard sampler installed; selections need a coordinator with shard peers")
		case spec.Covered != nil || spec.ColBias != nil:
			return nil, refuse(ReasonRemoteBias, "session-biased selections need the table's shards local")
		case p.rows == rowsAll && !p.scale.Active(c.rows) || p.scale.Threshold <= 0:
			return nil, refuse(ReasonRemoteUnscaled, "a table with remote shards serves scaled selections only (set ScaleOptions.Threshold)")
		case p.rows == rowsMaterialize || p.rows == rowsAll && !p.allCols:
			return nil, refuse(ReasonRemotePartial, "a table with remote shards serves full-table selections only (queries need the rows local)")
		}
		p.sample = sampleScatter
	} else {
		switch p.rows {
		case rowsFilter, rowsFilterScope, rowsFilterLimit:
			p.filter = binning.CompileFilter(c.bins, p.preds)
			var err error
			if p.residual, err = residualFor(c, p.filter); err != nil {
				return nil, err
			}
		}
		switch {
		case spec.Covered != nil:
			// Session-biased samples depend on mutable session state, so
			// they bypass the per-budget sample cache.
			p.sample = sampleCovered
		case p.rows == rowsAll && p.allCols:
			p.sample = sampleCached
		default:
			p.sample = sampleScan
		}
	}

	// Store-backed models never warm the n×dim full-table vector cache: it
	// would resurrect the very footprint the code store exists to shed, so
	// they gather per request instead (bit-identical vectors either way).
	p.vectors, p.columns, p.render = vectorsGather, columnsPatternGroup, renderResident
	if p.allCols && c.inlineCodes {
		p.vectors = vectorsFullCache
	}
	if spec.ColBias != nil {
		p.columns = columnsBiased
	} else if c.columns == Centroids {
		p.columns = columnsCentroid
	}
	if c.columnStore {
		p.render = renderGather
	}

	// The transient working set a serving layer reserves while this plan
	// runs: the tuple-vector slab it materializes (the dominant allocation)
	// plus the candidate index, sized for the largest candidate set the
	// plan can meet — every row. Scaled plans size by the sample budget
	// (capped by the slab spill budget when one is set — the spill path
	// keeps only one chunk resident); exact plans by the row count. The
	// estimate is deliberately on the reserve side of truth: pooled buffers
	// and k-means state ride inside it.
	rows, dim := int64(c.rows), int64(c.dim)
	p.reserve = rows * dim * 4
	if p.scale.Active(c.rows) {
		n := min(int64(p.scale.SampleBudget), rows)
		slab := n * dim * 4
		if p.scale.SlabBudgetBytes > 0 && slab > p.scale.SlabBudgetBytes {
			slab = p.scale.SlabBudgetBytes
		}
		p.reserve = slab + n*8
	}
	return p, nil
}
