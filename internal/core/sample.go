package core

import (
	"slices"
	"sort"

	"subtab/internal/binning"
	"subtab/internal/shard"
)

// stratifiedReservoir deterministically samples up to budget candidate rows
// for the scaled selection path with the stratified min-hash sampler of
// package shard: phase 1 keeps every (column, bin) stratum non-empty among
// the candidates (rare bins survive however skewed the table is), phase 2
// fills the rest of the budget uniformly. The sample is one fixed function
// of (binning, rows, cols, budget, seed) on every code layout. The result
// is sorted ascending and duplicate-free; a candidate set no larger than
// the budget is returned whole (sorted) — and "every row" stays the fact it
// arrived as.
//
// covered, when non-nil, marks (column, bin) item ids an exploration
// session has already shown, and phase 1 serves the uncovered strata first
// (each pass in ascending item order) — a drill-down's coverage budget goes
// to strata the user has not seen, while phase 2's uniform fill is
// untouched. covered == nil is bit-identical to the historical sampler.
func stratifiedReservoir(b *binning.Binned, rows rowSet, cols []int, budget int, seed int64, covered func(item int) bool) rowSet {
	if budget <= 0 || rows.n <= budget {
		if rows.ids == nil {
			return rows
		}
		out := make([]int, rows.n)
		copy(out, rows.ids)
		sort.Ints(out)
		return listRows(out)
	}
	// Shard-backed full-table samples scatter: one goroutine per shard,
	// merged associatively — same sample, one shard-scan's worth of wall
	// clock. Everything else is one scan of the binning's code source.
	if src, ok := b.Source().(*shard.Source); ok && src.Complete() && rows.ids == nil {
		return listRows(shardedReservoir(b, src, cols, budget, seed, covered))
	}
	ids := rows.ids
	if !slices.IsSorted(ids) {
		ids = slices.Sorted(slices.Values(ids))
	}
	sum := shard.ScanRows(b, b.Source(), 0, ids, cols, budget, seed)
	return listRows(shard.FinishSampleBiased(sum.Strata, sum.Cand, budget, covered))
}
