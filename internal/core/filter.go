package core

import (
	"fmt"

	"subtab/internal/bitset"
)

// The row stage of a selection and the exploration operators around it.
// Where/Select/Limit queries compile into a code-level filter
// (binning.CompileFilter, done by the planner) and evaluate over the
// model's CodeSource blocks, with residual cell checks batched through the
// model's cell source for bin-boundary rows only. Paged and sharded tables
// therefore filter without materializing a resident copy, and coordinators
// push the conjunction into the per-shard scans. Everything downstream of
// the row set is the one selection path, so streaming-filter results are
// byte-identical to materialize-then-filter on resident tables.

// candidateRows runs the plan's row source on a model whose shards are all
// local. Filters return ascending matches; a scope keeps the matches it
// holds (limits and scopes never combine — queries carry limits,
// drill-downs carry scopes). The materialize source is full relational
// evaluation (group-by, aggregates, sorting) via query.Apply over the
// resident table — a paged table's private copy (residentTable) — and
// doubles as the reference the streaming path is tested against.
func (m *Model) candidateRows(p *plan, spec ExploreSpec) (rowSet, error) {
	switch p.rows {
	case rowsAll:
		return allRows(m.T.NumRows()), nil
	case rowsScope:
		return listRows(spec.Scope), nil
	case rowsMaterialize:
		t, err := m.residentTable()
		if err != nil {
			return rowSet{}, err
		}
		_, rows, err := spec.Query.Apply(t)
		if err != nil {
			return rowSet{}, badQuery(err)
		}
		return listRows(rows), nil
	}
	rows, err := p.filter.MatchingRows(m.B.Source(), 0, m.cells().GatherCells, p.limit)
	if err != nil || p.rows != rowsFilterScope {
		return listRows(rows), err
	}
	return listRows(intersectSorted(rows, spec.Scope)), nil
}

// intersectSorted returns the rows two ascending lists share, ascending.
func intersectSorted(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// Neighborhood computes a drill-down scope around an anchor, streamed over
// the code source (no cell materialization). col >= 0 expands a cell: the
// rows whose column-col bin equals the anchor's. col < 0 expands a row:
// the rows agreeing with the anchor's bins on at least half (rounded up)
// of viewCols — the columns of the view the anchor was selected from. The
// result is sorted ascending and includes the anchor row.
func (m *Model) Neighborhood(row, col int, viewCols []int) ([]int, error) {
	n := m.T.NumRows()
	if row < 0 || row >= n {
		return nil, fmt.Errorf("core: anchor row %d out of range [0, %d)", row, n)
	}
	if err := m.RequireLocal(ReasonRemoteDrill); err != nil {
		return nil, err
	}
	src := m.B.Source()
	br := src.BlockRows()
	var scratch []uint16
	if col >= 0 {
		if col >= m.T.NumCols() {
			return nil, fmt.Errorf("core: anchor column %d out of range [0, %d)", col, m.T.NumCols())
		}
		anchor := m.B.Code(col, row)
		var out []int
		for blk := 0; blk < src.NumBlocks(); blk++ {
			codes := src.ColumnBlock(col, blk, scratch)
			scratch = codes
			off := blk * br
			for i, code := range codes {
				if code == anchor {
					out = append(out, off+i)
				}
			}
		}
		return out, nil
	}
	if len(viewCols) == 0 {
		return nil, fmt.Errorf("core: a row drill-down needs the columns of the anchor's view")
	}
	anchors := make([]uint16, len(viewCols))
	for j, c := range viewCols {
		if c < 0 || c >= m.T.NumCols() {
			return nil, fmt.Errorf("core: view column %d out of range [0, %d)", c, m.T.NumCols())
		}
		anchors[j] = m.B.Code(c, row)
	}
	needAgree := (len(viewCols) + 1) / 2
	agree := make([]int, br)
	var out []int
	for blk := 0; blk < src.NumBlocks(); blk++ {
		off := blk * br
		bn := min(br, n-off)
		for i := 0; i < bn; i++ {
			agree[i] = 0
		}
		for j, c := range viewCols {
			codes := src.ColumnBlock(c, blk, scratch)
			scratch = codes
			for i := 0; i < bn; i++ {
				if codes[i] == anchors[j] {
					agree[i]++
				}
			}
		}
		for i := 0; i < bn; i++ {
			if agree[i] >= needAgree {
				out = append(out, off+i)
			}
		}
	}
	return out, nil
}

// ViewItems returns the global (column, bin) item ids a selection
// displays — the strata a session marks covered after showing it. Sorted
// ascending, duplicate-free.
func (m *Model) ViewItems(st *SubTable) []int {
	seen := bitset.New(m.B.NumItems())
	for _, c := range st.ColIdx {
		for _, r := range st.SourceRows {
			seen.Add(int(m.B.ItemOf(c, int(m.B.Code(c, r)))))
		}
	}
	return seen.Indices()
}

// ColumnNullRates returns, per source column, the fraction of rows whose
// cell is missing — the DataPilot quality signal session weights fold into
// the column bias. Computed from the cached bin counts (no cell scan).
func (m *Model) ColumnNullRates() []float64 {
	counts := m.cachedBinCounts()
	out := make([]float64, len(counts))
	n := m.T.NumRows()
	if n == 0 {
		return out
	}
	for c := range counts {
		if mb := m.B.Cols[c].MissingBin; mb >= 0 {
			out[c] = float64(counts[c][mb]) / float64(n)
		}
	}
	return out
}
