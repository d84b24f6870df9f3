package binning

import (
	"fmt"

	"subtab/internal/table"
)

// AppendStats reports what an incremental binning extension observed about
// the appended rows. The caller (core.Model.Append) uses it to decide
// whether the incremental result is trustworthy or the table has drifted far
// enough that a full re-bin is warranted.
type AppendStats struct {
	// Drift[c] measures how far column c's overall bin distribution moved
	// because of the append: the total-variation distance between the
	// pre-existing rows' distribution and the concatenated table's, which
	// equals ChunkDrift[c] scaled by the chunk's share of the result
	// (Δn/(n+Δn)). This is the quantity to threshold a re-bin on — it asks
	// "are the bin boundaries stale for the table we now have?", so a tiny
	// chunk can never trip it by sampling noise alone, while a large
	// divergent chunk (or appending to an empty table) scores high.
	Drift []float64
	// ChunkDrift[c] is the unscaled total-variation distance between the
	// appended rows' own bin distribution and the pre-existing rows' (0 =
	// identical, 1 = disjoint) — diagnostic: high chunk drift with low
	// Drift means the chunk is unusual but too small to matter yet.
	ChunkDrift []float64
	// MaxDrift / MaxDriftCol locate the worst-drifting column (by Drift).
	MaxDrift    float64
	MaxDriftCol string
	// NewCategories counts dictionary entries that did not exist when the
	// binning was computed; their rows are folded into the last non-missing
	// bin ("other" when present), which is lossy until a re-bin runs.
	NewCategories int
	// RebinReason is non-empty when the existing binning structurally cannot
	// absorb the appended rows — a missing value in a column that has no
	// missing bin, or a real value in a column whose only bin is the missing
	// bin. Adding a bin would renumber the global item-id space that the
	// embedding and every persisted model are keyed on, so these cases force
	// a full re-bin; AppendRows then returns a nil Binned.
	RebinReason string
	// AppendedCounts[c][bin] counts the appended rows per bin, so callers
	// holding cumulative counts (core.Model) can update them without
	// re-scanning the table.
	AppendedCounts [][]int64
}

// AppendRows extends an existing binning over the concatenated table t,
// whose first firstNew rows are exactly old.T's rows and whose remainder is
// new. Bin boundaries are reused as-is: numeric cuts stay fixed, categorical
// dictionaries may have grown (new codes map to the last non-missing bin),
// and the global item-id space is unchanged — which is what lets the
// embedding, the mined rules and every downstream cache survive the append.
//
// oldCounts, when non-nil, must be the per-column per-bin counts of the
// pre-existing rows (as maintained by core.Model); passing nil makes
// AppendRows recompute them with one scan of the old codes. The returned
// Binned shares old's ColumnBins values (cuts, labels) but owns fresh code
// slices, so old remains fully usable by concurrent readers.
//
// When the appended rows are structurally incompatible with the binning
// (see AppendStats.RebinReason) the returned Binned is nil and the caller
// must fall back to a full Bin of t.
func AppendRows(old *Binned, t *table.Table, firstNew int, oldCounts [][]int64) (*Binned, AppendStats, error) {
	var stats AppendStats
	if t.NumCols() != len(old.Cols) {
		return nil, stats, fmt.Errorf("binning: append: table has %d columns, binning has %d", t.NumCols(), len(old.Cols))
	}
	if firstNew != old.NumRows() {
		return nil, stats, fmt.Errorf("binning: append: %d pre-existing rows, binning covers %d", firstNew, old.NumRows())
	}
	n := t.NumRows()
	if n < firstNew {
		return nil, stats, fmt.Errorf("binning: append: concatenated table has %d rows, fewer than the %d pre-existing", n, firstNew)
	}
	if oldCounts != nil && len(oldCounts) != len(old.Cols) {
		return nil, stats, fmt.Errorf("binning: append: %d count columns for %d binnings", len(oldCounts), len(old.Cols))
	}

	// Store-backed binnings (out-of-core selection) materialize their codes
	// once here: the append result owns fresh MemCodes either way.
	oldCodes, err := old.MaterializedCodes()
	if err != nil {
		return nil, stats, fmt.Errorf("binning: append: %w", err)
	}

	nc := len(old.Cols)
	stats.Drift = make([]float64, nc)
	stats.ChunkDrift = make([]float64, nc)
	stats.AppendedCounts = make([][]int64, nc)
	b := &Binned{T: t}
	newCodes := make(MemCodes, 0, nc)
	for c := 0; c < nc; c++ {
		cb := old.Cols[c] // value copy: Labels/Cuts shared, both immutable
		col := t.ColumnAt(c)
		if col.Name != cb.Col || col.Kind != cb.Kind {
			return nil, stats, fmt.Errorf("binning: append: column %d is %q (%v), binning has %q (%v)",
				c, col.Name, col.Kind, cb.Col, cb.Kind)
		}
		if cb.Kind == table.Categorical {
			// The concatenated table's dictionary may have grown; extend the
			// code→bin map (on a copy) so BinOfCat never hits its fallback
			// heuristics for codes we can account for here.
			dictSize := 0
			if col.Dict != nil {
				dictSize = col.Dict.Size()
			}
			if dictSize > len(cb.CatToBin) {
				stats.NewCategories += dictSize - len(cb.CatToBin)
				ext := make([]int, dictSize)
				copy(ext, cb.CatToBin)
				last := cb.lastNonMissingBin()
				for i := len(cb.CatToBin); i < dictSize; i++ {
					ext[i] = last
				}
				cb.CatToBin = ext
			}
		}
		onlyMissing := cb.NumBins() == 1 && cb.MissingBin == 0

		codes := make([]uint16, n)
		copy(codes, oldCodes[c])
		counts := make([]int64, cb.NumBins())
		for r := firstNew; r < n; r++ {
			var bin int
			switch {
			case col.Missing(r):
				if cb.MissingBin < 0 {
					stats.RebinReason = fmt.Sprintf("column %q: missing value appended to a column binned without a missing bin", cb.Col)
					return nil, stats, nil
				}
				bin = cb.MissingBin
			case onlyMissing:
				stats.RebinReason = fmt.Sprintf("column %q: value appended to a column binned as all-missing", cb.Col)
				return nil, stats, nil
			case cb.Kind == table.Numeric:
				bin = cb.BinOfNum(col.Nums[r])
			default:
				bin = cb.BinOfCat(col.Cats[r])
			}
			if bin < 0 {
				stats.RebinReason = fmt.Sprintf("column %q: appended value has no usable bin", cb.Col)
				return nil, stats, nil
			}
			codes[r] = uint16(bin)
			counts[bin]++
		}
		stats.AppendedCounts[c] = counts

		oc := make([]int64, cb.NumBins())
		if oldCounts != nil {
			if len(oldCounts[c]) != cb.NumBins() {
				return nil, stats, fmt.Errorf("binning: append: column %q has %d counts, %d bins", cb.Col, len(oldCounts[c]), cb.NumBins())
			}
			copy(oc, oldCounts[c])
		} else {
			for r := 0; r < firstNew; r++ {
				oc[codes[r]]++
			}
		}
		stats.ChunkDrift[c] = totalVariation(oc, counts, firstNew, n-firstNew)
		// Exact identity: p_concat − p_old = Δn/(n+Δn) · (p_chunk − p_old),
		// so the table-level shift is the chunk drift scaled by the chunk's
		// share of the concatenated table.
		if n > firstNew {
			stats.Drift[c] = stats.ChunkDrift[c] * float64(n-firstNew) / float64(n)
		}
		if stats.Drift[c] > stats.MaxDrift || stats.MaxDriftCol == "" {
			stats.MaxDrift, stats.MaxDriftCol = stats.Drift[c], cb.Col
		}

		b.colBase = append(b.colBase, int32(b.numItems))
		b.numItems += cb.NumBins()
		b.Cols = append(b.Cols, cb)
		newCodes = append(newCodes, codes)
	}
	b.src = newCodes
	return b, stats, nil
}

// totalVariation is the TV distance between the bin distributions implied by
// two count vectors: 0.5 * Σ|p_old - p_new|. An empty old side (appending to
// an empty table) counts as maximal drift when anything was appended; an
// empty new side drifts nothing.
func totalVariation(oldCounts, newCounts []int64, oldN, newN int) float64 {
	if newN == 0 {
		return 0
	}
	if oldN == 0 {
		return 1
	}
	s := 0.0
	invOld, invNew := 1/float64(oldN), 1/float64(newN)
	for i := range oldCounts {
		d := float64(oldCounts[i])*invOld - float64(newCounts[i])*invNew
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / 2
}
