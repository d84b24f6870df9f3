package core

import (
	"sort"

	"subtab/internal/binning"
	"subtab/internal/shard"
)

// stratifiedReservoir deterministically samples up to budget candidate rows
// for the scaled selection path. Strata are the (column, bin) items of the
// candidate rows over the given columns:
//
//   - Phase 1 (coverage) keeps, for every stratum that is non-empty among
//     the candidates, the row of smallest hash within the stratum — so rare
//     bins (rare categories, outlier numeric regimes) survive sampling no
//     matter how skewed the table is. When the stratum count itself exceeds
//     the budget, strata are served in ascending item-id order.
//   - Phase 2 (fill) spends the remaining budget on the rows with the
//     globally smallest hashes, which is a uniform reservoir over the
//     leftover candidates.
//
// Both phases rank rows by one seeded per-row hash (computed once — the
// per-cell work of the dominant phase-1 scan is then a uint16 read and a
// compare, which is what keeps a 31-column million-row scan in the low
// hundreds of milliseconds on one core) rather than by sequential rng
// draws, so the sample is one fixed function of (binning, rows, cols,
// budget, seed) — no iteration-order or scheduling dependence — and any
// candidate subset of a table samples consistently. The result is sorted
// ascending and duplicate-free; a candidate set no larger than the budget
// is returned whole (sorted) — and "every row" stays the fact it arrived as.
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

	// Shard-backed full-table scans scatter: one goroutine per shard, merged
	// associatively (package shard) — same sample, one shard-scan's worth of
	// wall clock. Query subsets fall through to the generic block cursor.
	whole := rows.ids == nil // a row set without ids is the whole table here
	if src, ok := b.Source().(*shard.Source); ok && src.Complete() && whole {
		return listRows(shardedReservoir(b, src, cols, budget, seed, covered))
	}

	// The hash lives in package shard so per-shard scans — local or on a
	// peer — rank rows identically to this whole-table scan.
	rowH := make([]uint64, rows.n)
	for i := range rowH {
		rowH[i] = shard.RowHash(seed, int64(rows.at(i)))
	}

	// Phase 1: per-stratum min-hash representative. The stratum space is the
	// global item-id space restricted to cols; NumItems is small (columns ×
	// bins), so flat slots beat a map.
	//
	// Codes are read through the binning's CodeSource so the scan runs
	// identically over inline codes and over an on-disk store: min-hash with
	// a value-based tie-break is order-independent, so chunked block scans
	// (and the store's block geometry) cannot change the sample — the
	// property that lets the out-of-core path reproduce the in-memory
	// sample bit for bit.
	bestRow := make([]int, b.NumItems())
	bestHash := make([]uint64, b.NumItems())
	for s := range bestRow {
		bestRow[s] = -1
	}
	update := func(s int32, r int, h uint64) {
		if bestRow[s] < 0 || h < bestHash[s] || (h == bestHash[s] && r < bestRow[s]) {
			bestRow[s], bestHash[s] = r, h
		}
	}
	src := b.Source()
	var scratch []uint16
	for _, c := range cols {
		base := b.ItemOf(c, 0)
		switch {
		case whole:
			// Full-table scan: stream whole blocks in order (inline codes
			// are one block per column). One uint16 read and a compare per
			// cell, kept free of the closure: this is the dominant scan of
			// every scaled select over the whole table.
			br := src.BlockRows()
			for blk := 0; blk < src.NumBlocks(); blk++ {
				codes := src.ColumnBlock(c, blk, scratch)
				scratch = codes
				off := blk * br
				hs := rowH[off : off+len(codes)]
				for i, code := range codes {
					s, r, h := base+int32(code), off+i, hs[i]
					if bestRow[s] < 0 || h < bestHash[s] || (h == bestHash[s] && r < bestRow[s]) {
						bestRow[s], bestHash[s] = r, h
					}
				}
			}
		case b.HasInlineCodes():
			// Resident codes, candidate subset: the same loop over the ids.
			codes := b.Codes[c]
			for i, r := range rows.ids {
				s := base + int32(codes[r])
				h := rowH[i]
				if bestRow[s] < 0 || h < bestHash[s] || (h == bestHash[s] && r < bestRow[s]) {
					bestRow[s], bestHash[s] = r, h
				}
			}
		default:
			// Store-backed candidate subset (a query result): walk the rows
			// with a per-column block cursor — sequential block loads for the
			// (sorted) common case, still correct for any order.
			br := src.BlockRows()
			blk := -1
			var codes []uint16
			for i, r := range rows.ids {
				if nb := r / br; nb != blk {
					blk = nb
					codes = src.ColumnBlock(c, blk, scratch)
					scratch = codes
				}
				update(base+int32(codes[r-blk*br]), r, rowH[i])
			}
		}
	}
	picked := make(map[int]bool, budget)
	sample := make([]int, 0, budget)
	for _, wantCovered := range [2]bool{false, true} {
		if len(sample) >= budget {
			break
		}
		for s := range bestRow {
			if len(sample) >= budget {
				break
			}
			if covered != nil && covered(s) != wantCovered {
				continue
			}
			r := bestRow[s]
			if r < 0 || picked[r] {
				continue
			}
			picked[r] = true
			sample = append(sample, r)
		}
		if covered == nil {
			break
		}
	}

	// Phase 2: uniform fill — the (budget - coverage) rows with the smallest
	// row-keyed hashes, via a bounded max-heap so million-row candidate sets
	// need no full sort. Ties break toward the lower row id.
	if rem := budget - len(sample); rem > 0 {
		heapH := make([]uint64, 0, rem)
		heapR := make([]int, 0, rem)
		greater := func(i, j int) bool {
			if heapH[i] != heapH[j] {
				return heapH[i] > heapH[j]
			}
			return heapR[i] > heapR[j]
		}
		siftDown := func(i int) {
			for {
				l, rch := 2*i+1, 2*i+2
				big := i
				if l < len(heapH) && greater(l, big) {
					big = l
				}
				if rch < len(heapH) && greater(rch, big) {
					big = rch
				}
				if big == i {
					return
				}
				heapH[i], heapH[big] = heapH[big], heapH[i]
				heapR[i], heapR[big] = heapR[big], heapR[i]
				i = big
			}
		}
		for i, h := range rowH {
			r := rows.at(i)
			if picked[r] {
				continue
			}
			if len(heapH) < rem {
				heapH = append(heapH, h)
				heapR = append(heapR, r)
				for i := len(heapH) - 1; i > 0; {
					p := (i - 1) / 2
					if !greater(i, p) {
						break
					}
					heapH[i], heapH[p] = heapH[p], heapH[i]
					heapR[i], heapR[p] = heapR[p], heapR[i]
					i = p
				}
				continue
			}
			if h > heapH[0] || (h == heapH[0] && r > heapR[0]) {
				continue
			}
			heapH[0], heapR[0] = h, r
			siftDown(0)
		}
		sample = append(sample, heapR...)
	}
	sort.Ints(sample)
	return listRows(sample)
}
