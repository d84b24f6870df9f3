package binning

import (
	"fmt"

	"subtab/internal/query"
	"subtab/internal/table"
)

// Code-level predicate evaluation: a conjunction of query.Predicates is
// compiled against the binning layout into a per-(predicate, bin) tri-state
// table, so filters run over CodeSource blocks — two-byte reads — instead of
// raw cells. Most bins decide a predicate outright:
//
//   - numeric bins are intervals (Cuts[i-1], Cuts[i]] with open extremes, so
//     a comparison against a threshold is exact for every bin the threshold
//     does not fall into (and exact even there when the threshold is
//     cut-aligned, e.g. Leq at a cut boundary);
//   - non-fallback categorical bins hold exactly one category, so equality
//     is exact; only the fallback bin (the "other"/append catch-all, see
//     lastNonMissingBin) can mix categories;
//   - the dedicated missing bin decides IsMissing/NotMissing exactly and
//     fails every value comparison, exactly like query.Predicate.Matches.
//
// Rows landing in an undecided ("maybe") bin are resolved by a batched
// residual check over their rendered cells (CellFn — on paged tables this is
// colstore gathering only the boundary rows' blocks), using
// query.Predicate.MatchesCell, which decides exactly as Matches would. The
// matched row set is therefore identical to the resident-cell evaluation,
// with no full-table materialization.

// binClass is the compile-time verdict for one (predicate, bin) pair.
type binClass uint8

const (
	binFalse binClass = iota // no row of this bin can satisfy the predicate
	binTrue                  // every row of this bin satisfies it
	binMaybe                 // undecidable from the bin alone: residual check
)

// predProgram is one compiled predicate: the column it reads and its
// per-bin verdict table.
type predProgram struct {
	pred  query.Predicate
	col   int // column index, -1 when the column is unknown (matches nothing)
	kind  table.Kind
	class []binClass
}

// Filter is a compiled conjunction, ready to stream a CodeSource.
type Filter struct {
	preds []predProgram
	exact bool // no maybe bin anywhere: never needs a CellFn
}

// CellFn resolves residual rows: the rendered cell strings (the
// table.CellSource.GatherCells contract) of the given rows — ascending
// global ids — in source column col.
type CellFn func(col int, rows []int) ([]string, error)

// Exact reports whether the filter decides every row from codes alone (no
// residual cell reads will ever be issued).
func (f *Filter) Exact() bool { return f.exact }

// NumPredicates returns the number of compiled predicates.
func (f *Filter) NumPredicates() int { return len(f.preds) }

// CompileFilter compiles a conjunction of predicates against the binning
// layout. Every conjunction compiles — predicates over unknown columns
// match nothing, wrong-kind comparisons match nothing — mirroring
// query.Predicate.Matches exactly.
func (b *Binned) CompileFilter(preds []query.Predicate) *Filter {
	return CompileFilter(b.Cols, preds)
}

// CompileFilter compiles against a binning schema alone: the verdict tables
// depend on bin boundaries, never on codes, so a planner can classify a
// conjunction (Exact) without touching the table.
func CompileFilter(cols []ColumnBins, preds []query.Predicate) *Filter {
	f := &Filter{preds: make([]predProgram, 0, len(preds)), exact: true}
	for _, p := range preds {
		pp := predProgram{pred: p, col: -1}
		for c := range cols {
			if cols[c].Col == p.Col {
				pp.col = c
				break
			}
		}
		if pp.col >= 0 {
			cb := &cols[pp.col]
			pp.kind = cb.Kind
			pp.class = classifyBins(cb, p)
			for _, cl := range pp.class {
				if cl == binMaybe {
					f.exact = false
					break
				}
			}
		}
		f.preds = append(f.preds, pp)
	}
	return f
}

// classifyBins builds the per-bin verdict table of one predicate over one
// column's binning.
func classifyBins(cb *ColumnBins, p query.Predicate) []binClass {
	mixed := mixedFallback(cb)
	class := make([]binClass, cb.NumBins())
	for v := range class {
		class[v] = classifyBin(cb, p, v, mixed)
	}
	return class
}

// mixedFallback reports whether the column's last non-missing bin can hold
// more than one category — the "other" frequency tail, or dictionary codes
// folded in after binning. A fallback bin with exactly one mapped category
// classifies like any other single-category bin.
func mixedFallback(cb *ColumnBins) bool {
	if cb.Kind != table.Categorical {
		return false
	}
	last := cb.lastNonMissingBin()
	if last < 0 {
		return false
	}
	n := 0
	for _, bin := range cb.CatToBin {
		if bin == last {
			if n++; n > 1 {
				return true
			}
		}
	}
	return false
}

func classifyBin(cb *ColumnBins, p query.Predicate, bin int, mixed bool) binClass {
	if bin == cb.MissingBin {
		// Missing cells match IsMissing and nothing else.
		if p.Op == query.IsMissing {
			return binTrue
		}
		return binFalse
	}
	switch p.Op {
	case query.IsMissing:
		return binFalse
	case query.NotMissing:
		return binTrue
	}
	if cb.Kind == table.Categorical {
		switch p.Op {
		case query.Eq, query.Neq:
		default:
			return binFalse // numeric comparisons never match a categorical
		}
		if mixed && bin == cb.lastNonMissingBin() {
			// The fallback bin mixes the frequency tail ("other") and any
			// category appended after binning: only the cells can tell.
			return binMaybe
		}
		match := cb.Labels[bin] == p.Str
		if (p.Op == query.Eq) == match {
			return binTrue
		}
		return binFalse
	}
	// Numeric column: bin is the interval (lo, hi], lo/hi open at the
	// extremes (Cuts has non-missing bins - 1 entries).
	lo, hi := binInterval(cb, bin)
	x := p.Num
	switch p.Op {
	case query.Eq:
		if x <= lo || x > hi {
			return binFalse // x outside (lo, hi]: no row can equal it
		}
		return binMaybe
	case query.Neq:
		if x <= lo || x > hi {
			return binTrue
		}
		return binMaybe
	case query.Lt: // row < x
		if hi < x {
			return binTrue
		}
		if x <= lo {
			return binFalse // every row > lo >= x
		}
		return binMaybe
	case query.Leq: // row <= x
		if hi <= x {
			return binTrue // cut-aligned thresholds are exact here
		}
		if x <= lo {
			return binFalse
		}
		return binMaybe
	case query.Gt: // row > x
		if x <= lo {
			return binTrue
		}
		if hi <= x {
			return binFalse // cut-aligned thresholds are exact here
		}
		return binMaybe
	case query.Geq: // row >= x
		if x <= lo {
			return binTrue
		}
		if hi < x {
			return binFalse
		}
		return binMaybe
	default:
		return binFalse
	}
}

// binInterval returns numeric bin's covered interval (lo, hi], with
// -Inf/+Inf at the open extremes.
func binInterval(cb *ColumnBins, bin int) (lo, hi float64) {
	lo, hi = negInf, posInf
	if bin > 0 {
		lo = cb.Cuts[bin-1]
	}
	if bin < len(cb.Cuts) {
		hi = cb.Cuts[bin]
	}
	return lo, hi
}

var (
	posInf = func() float64 { var z float64; return 1 / z }()
	negInf = -posInf
)

// MatchingRows streams src and returns the ascending global row ids
// matching the conjunction, stopping after limit matches (limit <= 0: no
// limit). start offsets local rows to global ids (0 for whole-table
// sources). cells resolves residual rows; it may be nil for exact filters
// (a residual row with no CellFn is an error, not a guess). Partial sources
// must have every block available.
func (f *Filter) MatchingRows(src CodeSource, start int, cells CellFn, limit int) ([]int, error) {
	var out []int
	err := f.stream(src, start, cells, func(rows []int) bool {
		out = append(out, rows...)
		if limit > 0 && len(out) >= limit {
			out = out[:limit]
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatchMask evaluates the conjunction over every row of src and returns a
// local-row keep mask plus the matched count — the shard-scan form, where
// the sampler needs random access to the verdicts rather than a row list.
func (f *Filter) MatchMask(src CodeSource, start int, cells CellFn) ([]bool, int, error) {
	n := 0
	if src != nil {
		n = src.NumRows()
	}
	keep := make([]bool, n)
	matched := 0
	err := f.stream(src, start, cells, func(rows []int) bool {
		for _, r := range rows {
			keep[r-start] = true
		}
		matched += len(rows)
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return keep, matched, nil
}

// stream drives the block loop: per block it classifies every row against
// every predicate, batches one residual cell gather per predicate with
// undecided rows, and emits the block's matching global rows (ascending) to
// emit. emit returning false stops the scan early (the limit path).
func (f *Filter) stream(src CodeSource, start int, cells CellFn, emit func(rows []int) bool) error {
	if src == nil || src.NumRows() == 0 {
		return nil
	}
	// A predicate over an unknown column matches nothing: the conjunction is
	// empty without reading a single block.
	for _, pp := range f.preds {
		if pp.col < 0 {
			return nil
		}
	}
	ps, ok := src.(PartialCodeSource)
	n := src.NumRows()
	br := src.BlockRows()
	alive := make([]bool, br)
	var scratch []uint16
	var batch []int
	for blk := 0; blk < src.NumBlocks(); blk++ {
		if ok && !ps.BlockAvailable(blk) {
			return fmt.Errorf("binning: predicate filter needs block %d, which is not held locally", blk)
		}
		bn := br
		if off := blk * br; off+bn > n {
			bn = n - off
		}
		for i := 0; i < bn; i++ {
			alive[i] = true
		}
		// residual[pi] collects the block-local rows predicate pi cannot
		// decide from codes; resolved in one gather per predicate below.
		var residual [][]int
		for pi := range f.preds {
			pp := &f.preds[pi]
			codes := src.ColumnBlock(pp.col, blk, scratch)
			scratch = codes
			var undecided []int
			for i := 0; i < bn; i++ {
				if !alive[i] {
					continue
				}
				switch pp.class[codes[i]] {
				case binFalse:
					alive[i] = false
				case binMaybe:
					undecided = append(undecided, i)
				}
			}
			if undecided != nil {
				if residual == nil {
					residual = make([][]int, len(f.preds))
				}
				residual[pi] = undecided
			}
		}
		off := blk * br
		for pi := range residual {
			pp := &f.preds[pi]
			var local, global []int
			for _, i := range residual[pi] {
				if alive[i] { // an earlier predicate may have killed the row
					local = append(local, i)
					global = append(global, start+off+i)
				}
			}
			if len(local) == 0 {
				continue
			}
			if cells == nil {
				return fmt.Errorf("binning: predicate %s needs a residual cell check and no cell source is available", pp.pred)
			}
			rendered, err := cells(pp.col, global)
			if err != nil {
				return fmt.Errorf("binning: resolving residual rows of %s: %w", pp.pred, err)
			}
			if len(rendered) != len(global) {
				return fmt.Errorf("binning: residual cell gather returned %d cells, want %d", len(rendered), len(global))
			}
			for j, i := range local {
				if !pp.pred.MatchesCell(pp.kind, rendered[j]) {
					alive[i] = false
				}
			}
		}
		batch = batch[:0]
		for i := 0; i < bn; i++ {
			if alive[i] {
				batch = append(batch, start+off+i)
			}
		}
		if len(batch) > 0 && !emit(batch) {
			return nil
		}
	}
	return nil
}
