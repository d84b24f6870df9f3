package core

import (
	"fmt"

	"subtab/internal/binning"
	"subtab/internal/cluster"
)

// FairnessOptions constrains a selection so that the groups of a protected
// column are all represented among the displayed rows — the paper's §7
// future-work direction of "sub-tables that meet certain fairness
// requirements with respect to the data they represent". Set it as
// ExploreSpec.Fairness.
//
// The planner refuses (ReasonBadSpec) an unknown GroupCol, and a k smaller
// than the column's bin count × MinPerGroup. The quota is enforced in the
// representatives stage, over the rows the selection clusters (the
// candidates, or the stratified sample when scaled): each group wants
// min(MinPerGroup, its clustered rows). Groups short of their want are
// filled lowest bin first; each missing row is the group's unchosen
// clustered row with the smallest (distance to its centre, index), and it
// replaces, in place, the representative with the largest (distance,
// index) among the groups holding more than their want. Column choice and
// rendering then run unchanged, so a display that already meets the quota
// is exactly the unconstrained one.
type FairnessOptions struct {
	// GroupCol is the protected column; its bins define the groups.
	GroupCol string
	// MinPerGroup is the minimum number of displayed rows per group;
	// values <= 0 mean 1.
	MinPerGroup int
}

// groupQuota applies the FairnessOptions quota in place to reps, the
// representatives as indices into rows: per rows from each of the bins
// groups of column col, whose codes are gathered from src in one call.
func groupQuota(reps []int, res *cluster.Result, rows rowSet, col, per, bins int, src binning.CodeSource) {
	group := make([]uint16, rows.n)
	src.GatherCodes(col, rows.list(), group)
	size := make([]int, bins)
	for _, g := range group {
		size[g]++
	}
	have := make([]int, bins)
	chosen := make([]bool, rows.n)
	for _, i := range reps {
		have[group[i]]++
		chosen[i] = true
	}
	over := func(i int) bool { g := group[i]; return have[g] > min(per, size[g]) }
	// after orders clustered rows by (distance to their centre, index).
	after := func(a, b int) bool { return res.Dist[a] > res.Dist[b] || res.Dist[a] == res.Dist[b] && a > b }
	for g := range bins {
		for have[g] < min(per, size[g]) {
			in, out := -1, -1
			for i, gi := range group {
				if int(gi) == g && !chosen[i] && (in < 0 || after(in, i)) {
					in = i
				}
			}
			for x, j := range reps {
				if over(j) && (out < 0 || after(j, reps[out])) {
					out = x
				}
			}
			if out < 0 {
				return // fewer representatives than k: nothing to trade away
			}
			have[group[reps[out]]]--
			chosen[reps[out]] = false
			reps[out] = in
			have[g]++
			chosen[in] = true
		}
	}
}

// GroupCounts reports, for each bin label of the given column, how many of
// the sub-table's rows fall in it — the fairness audit of a display.
func (m *Model) GroupCounts(st *SubTable, groupCol string) (map[string]int, error) {
	gi := m.T.ColumnIndex(groupCol)
	if gi < 0 {
		return nil, fmt.Errorf("core: unknown group column %q", groupCol)
	}
	out := make(map[string]int)
	for _, r := range st.SourceRows {
		out[m.B.Cols[gi].Labels[m.B.Code(gi, r)]]++
	}
	return out, nil
}
