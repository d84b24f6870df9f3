package shard

import (
	"sort"

	"subtab/internal/binning"
)

// The stratified min-hash sampler behind the scaled selection path, in
// one implementation: a table on one store is the one-summary case of the
// scatter/gather protocol. Strata are the (column, bin) items of the
// sampled rows over the requested columns, and both phases rank rows by
// one seeded per-row hash (RowHash), so a sample is a fixed function of
// (binning, rows, cols, budget, seed) with no dependence on block
// geometry, shard cuts or scheduling:
//
//   - Phase 1 (coverage) keeps, per stratum, the row with the smallest
//     hash (ties to the lower row id), so rare bins survive sampling
//     however skewed the table is. Per-shard minima merge by the same
//     comparison — min is associative and commutative, so any grouping
//     of rows into shards yields the global minima. The pick serves
//     strata in ascending item order until the budget is spent.
//   - Phase 2 (fill) spends the rest of the budget on the smallest
//     (hash, row) pairs among rows phase 1 did not pick: a uniform
//     reservoir over the leftovers. A shard cannot know the global picked
//     set, so it reports its budget smallest pairs unfiltered. That is
//     always enough: a row among the global rem-smallest unpicked has
//     fewer than picked + rem <= budget shard-local rows ahead of it in
//     (hash, row) order, so it sits within its shard's top budget.
//
// ScanRows produces a Summary, MergeSummaries folds several, and
// FinishSampleBiased picks the sample from the merged state. Tests in
// core pin the result against a definition-level oracle of this order.

// StratumMin is the phase-1 state of one stratum: the minimal (hash, row)
// pair seen, or Row == -1 when the stratum is empty so far.
type StratumMin struct {
	Row  int64
	Hash uint64
}

// HashRow is one phase-2 candidate: a (hash, row) pair ordered
// lexicographically.
type HashRow struct {
	Hash uint64
	Row  int64
}

// Summary is one scan's contribution to a sample. Strata is indexed by
// global item id; Cand holds the scan's budget smallest (hash, row) pairs
// in no particular order (the finish selects among them by value). Rows
// are global ids throughout.
type Summary struct {
	Strata []StratumMin
	Cand   []HashRow
}

// RowHash maps (seed, global row) to a uniform 64-bit rank with a
// splitmix64-style finalizer. It is the one hash both sampler phases rank
// rows by, so every scan of a row ranks it the same.
func RowHash(seed int64, row int64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(row)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// EmptyStrata returns the identity element of the strata merge: numItems
// empty minima.
func EmptyStrata(numItems int) []StratumMin {
	strata := make([]StratumMin, numItems)
	for i := range strata {
		strata[i].Row = -1
	}
	return strata
}

// Scan computes one shard's Summary: cs holds the shard's rows (local ids
// 0..NumRows-1, global ids offset by start), b supplies the item-id space
// (stratum s of column c's code v is b.ItemOf(c, 0)+v), and budget bounds
// the phase-2 candidate list. The scan streams cs block by block.
func Scan(b *binning.Binned, cs binning.CodeSource, start int, cols []int, budget int, seed int64) Summary {
	return ScanRows(b, cs, start, nil, cols, budget, seed)
}

// ScanRows is the one sampler scan. rows lists the global row ids to
// sample from — ascending, each inside cs's range [start, start+NumRows) —
// or is nil for every row of cs. A list reads its codes with GatherCodes,
// the whole range streams ColumnBlock; both are the same per-cell
// read-and-compare. Rows left out contribute to neither phase, so merged
// per-shard scans of any row subset equal one scan of that subset.
func ScanRows(b *binning.Binned, cs binning.CodeSource, start int, rows []int, cols []int, budget int, seed int64) Summary {
	strata := EmptyStrata(b.NumItems())
	n := len(rows)
	if rows == nil && cs != nil {
		n = cs.NumRows()
	}
	if n == 0 {
		return Summary{Strata: strata}
	}
	// One hash per scanned row, computed once: the per-cell work of the
	// dominant phase-1 loop is then a code read and a compare. The same
	// pass keeps the phase-2 candidates, the budget smallest (hash, row)
	// pairs, in a bounded max-heap, so a large scan needs no full sort.
	rowH := make([]uint64, n)
	heap := make(candHeap, 0, min(budget, n))
	for i := range rowH {
		r := start + i
		if rows != nil {
			r = rows[i]
		}
		hr := HashRow{Hash: RowHash(seed, int64(r)), Row: int64(r)}
		rowH[i] = hr.Hash
		if len(heap) < cap(heap) {
			heap = append(heap, hr)
			heap.up(len(heap) - 1)
		} else if hr.less(heap[0]) {
			heap[0] = hr
			heap.down(0)
		}
	}
	var scratch []uint16
	if rows != nil {
		local := rows
		if start != 0 {
			local = make([]int, n)
			for i, r := range rows {
				local[i] = r - start
			}
		}
		scratch = make([]uint16, n)
		for _, c := range cols {
			base := b.ItemOf(c, 0)
			cs.GatherCodes(c, local, scratch)
			for i, code := range scratch {
				strata[base+int32(code)].offer(int64(rows[i]), rowH[i])
			}
		}
		return Summary{Strata: strata, Cand: heap}
	}
	br := cs.BlockRows()
	for _, c := range cols {
		base := b.ItemOf(c, 0)
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			codes := cs.ColumnBlock(c, blk, scratch)
			scratch = codes
			off := blk * br
			hs := rowH[off : off+len(codes)]
			for i, code := range codes {
				strata[base+int32(code)].offer(int64(start+off+i), hs[i])
			}
		}
	}
	return Summary{Strata: strata, Cand: heap}
}

// offer lowers the stratum's minimum to (hash h, row r) when that pair
// ranks below it: by hash, ties toward the lower row id.
func (m *StratumMin) offer(r int64, h uint64) {
	if m.Row < 0 || h < m.Hash || h == m.Hash && r < m.Row {
		*m = StratumMin{Row: r, Hash: h}
	}
}

// less is the sampler's (hash, row) order: ties in hash break toward the
// lower row id.
func (a HashRow) less(b HashRow) bool {
	return a.Hash < b.Hash || a.Hash == b.Hash && a.Row < b.Row
}

// candHeap is a binary max-heap of candidates under HashRow.less.
type candHeap []HashRow

func (h candHeap) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !h[p].less(h[j]) {
			return
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

func (h candHeap) down(i int) {
	for {
		big, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[big].less(h[l]) {
			big = l
		}
		if r < len(h) && h[big].less(h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// MergeStrata folds src's phase-1 minima into dst element-wise with the
// sampler's (hash, row) comparison. The merge is associative and
// commutative, so shard order cannot change the result.
func MergeStrata(dst, src []StratumMin) {
	for s := range dst {
		if o := src[s]; o.Row >= 0 {
			dst[s].offer(o.Row, o.Hash)
		}
	}
}

// MergeSummaries folds per-shard summaries (zero-value entries — skipped
// shards — are ignored) into one merged strata array plus the
// concatenated candidate list, ready for FinishSample.
func MergeSummaries(sums []Summary, numItems int) ([]StratumMin, []HashRow) {
	strata := EmptyStrata(numItems)
	var cands []HashRow
	for _, sum := range sums {
		if sum.Strata == nil {
			continue
		}
		MergeStrata(strata, sum.Strata)
		cands = append(cands, sum.Cand...)
	}
	return strata, cands
}

// CandidateRows returns the sorted, duplicate-free global rows a summary
// references (stratum minima plus phase-2 candidates) — the rows whose
// codes a shard ships back so the coordinator can finish the selection
// without another round trip.
func (s Summary) CandidateRows() []int64 {
	seen := make(map[int64]bool, len(s.Cand)+len(s.Strata))
	out := make([]int64, 0, len(s.Cand)+len(s.Strata))
	for _, sm := range s.Strata {
		if sm.Row >= 0 && !seen[sm.Row] {
			seen[sm.Row] = true
			out = append(out, sm.Row)
		}
	}
	for _, hr := range s.Cand {
		if !seen[hr.Row] {
			seen[hr.Row] = true
			out = append(out, hr.Row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FinishSample picks the sample from merged scan state: phase 1 serves
// strata in ascending item order (skipping empties and rows already
// picked) up to budget, then phase 2 spends the remainder on the smallest
// unpicked (hash, row) candidates. The result is sorted ascending.
func FinishSample(strata []StratumMin, cands []HashRow, budget int) []int {
	return FinishSampleBiased(strata, cands, budget, nil)
}

// FinishSampleBiased is FinishSample with session coverage bias: phase 1
// serves the strata whose item id covered reports false first (ascending),
// then the already-covered strata (ascending), so a drill-down's budget
// prefers rows representing strata the session has not yet shown. covered
// == nil restores the unbiased order exactly.
func FinishSampleBiased(strata []StratumMin, cands []HashRow, budget int, covered func(item int) bool) []int {
	picked := make(map[int64]bool, budget)
	sample := make([]int, 0, budget)
	passes := [2]bool{false, true}
	for _, wantCovered := range passes {
		if len(sample) >= budget {
			break
		}
		for s := range strata {
			if len(sample) >= budget {
				break
			}
			if covered != nil && covered(s) != wantCovered {
				continue
			}
			r := strata[s].Row
			if r < 0 || picked[r] {
				continue
			}
			picked[r] = true
			sample = append(sample, int(r))
		}
		if covered == nil {
			break
		}
	}
	if rem := budget - len(sample); rem > 0 {
		// The rem smallest unpicked candidates: heapify the unpicked ones and
		// pop the excess from the top. One summary's excess is at most its
		// phase-1 picks, so a single-store finish pops few and sorts nothing.
		rest := make(candHeap, 0, len(cands))
		for _, hr := range cands {
			if !picked[hr.Row] {
				rest = append(rest, hr)
			}
		}
		for i := len(rest)/2 - 1; i >= 0; i-- {
			rest.down(i)
		}
		for len(rest) > rem {
			last := len(rest) - 1
			rest[0] = rest[last]
			rest = rest[:last]
			rest.down(0)
		}
		for _, hr := range rest {
			sample = append(sample, int(hr.Row))
		}
	}
	sort.Ints(sample)
	return sample
}
