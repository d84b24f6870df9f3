// Package binning implements Def. 3.2 of the paper: mapping every column of
// a table onto a small set of bins so that heterogeneous columns can be
// treated uniformly by the rule miner, the metrics, and the embedding.
//
// Numeric columns are split at the valleys of a Gaussian kernel density
// estimate (the paper's method, §6.1), with quantile and equal-width
// strategies available as alternatives and as fallbacks. Categorical columns
// keep their categories as bins, grouping the tail into an "other" bin when
// there are too many. Missing values get a dedicated bin per column: in the
// paper's flights example NaN cells participate in association rules (a
// cancelled flight has NaN departure time), so "missing" must be a
// first-class value.
//
// A binned cell is identified globally by its item id, the (column, bin)
// pair encoded as one int32. Item ids are the alphabet shared by the Apriori
// miner (package rules) and the embedding corpus (package corpus).
package binning

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"subtab/internal/stats"
	"subtab/internal/table"
)

// Strategy selects how numeric columns are cut into bins.
type Strategy int

const (
	// KDEValleys cuts at local minima of a Gaussian KDE (paper default),
	// falling back to Quantile when the density has no usable valleys.
	KDEValleys Strategy = iota
	// Quantile cuts at equal-frequency boundaries.
	Quantile
	// EqualWidth cuts the value range into equal-width intervals.
	EqualWidth
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case KDEValleys:
		return "kde"
	case Quantile:
		return "quantile"
	case EqualWidth:
		return "equal-width"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MaxBinsLimit is the largest MaxBins Bin accepts: bin codes are uint16,
// and a column holds at most MaxBins bins plus a missing bin.
const MaxBinsLimit = 1<<16 - 1

// Options configures binning.
type Options struct {
	// MaxBins bounds the number of non-missing bins per column (paper
	// default: 5, at most MaxBinsLimit).
	MaxBins int
	// Strategy for numeric columns.
	Strategy Strategy
	// SampleSize caps the sample used for KDE estimation (0 = 2000).
	SampleSize int
	// GridSize is the KDE evaluation grid (0 = 256).
	GridSize int
	// Seed drives sampling for KDE.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxBins <= 0 {
		o.MaxBins = 5
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 2000
	}
	if o.GridSize <= 0 {
		o.GridSize = 256
	}
	return o
}

// MissingLabel is the label of the dedicated missing-value bin.
const MissingLabel = "missing"

// ColumnBins describes the binning of one column.
type ColumnBins struct {
	Col    string
	Kind   table.Kind
	Labels []string // one per bin, indexed by bin code

	// Numeric: values are assigned to bins by Cuts; bin i covers
	// (Cuts[i-1], Cuts[i]] with open ends at the extremes. len(Cuts) =
	// numeric bins - 1.
	Cuts []float64

	// Categorical: CatToBin maps a category code to its bin.
	CatToBin []int

	// MissingBin is the bin index of the missing bin, or -1 when the column
	// has no missing values.
	MissingBin int
}

// NumBins returns the total number of bins, including the missing bin.
func (cb *ColumnBins) NumBins() int { return len(cb.Labels) }

// ApproxBytes estimates the heap bytes of the binning schema itself:
// labels, cuts, and the category→bin map. Codes are accounted separately
// by their owner (they dominate and may live out-of-core).
func (cb *ColumnBins) ApproxBytes() int64 {
	b := int64(len(cb.Cuts))*8 + int64(len(cb.CatToBin))*8
	for _, l := range cb.Labels {
		b += 16 + int64(len(l))
	}
	return b
}

// BinOfNum returns the bin of a numeric value (not for missing values).
func (cb *ColumnBins) BinOfNum(v float64) int {
	// Binary search over cuts: bin = first i with v <= Cuts[i].
	lo, hi := 0, len(cb.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= cb.Cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// BinOfCat returns the bin of a categorical code (not for missing values).
func (cb *ColumnBins) BinOfCat(code int32) int {
	if int(code) < len(cb.CatToBin) {
		return cb.CatToBin[code]
	}
	// Unseen code (e.g. appended after binning): treat as the last
	// non-missing bin ("other" when present).
	return cb.lastNonMissingBin()
}

// lastNonMissingBin is the fallback bin for category codes that did not
// exist when the binning was computed — the single definition of that
// policy, shared by BinOfCat and the append path's CatToBin extension.
func (cb *ColumnBins) lastNonMissingBin() int {
	last := len(cb.Labels) - 1
	if last == cb.MissingBin {
		last--
	}
	if last < 0 {
		last = 0
	}
	return last
}

// Binned is a table with every cell mapped to its bin, plus the global item
// id space shared by mining and embedding.
type Binned struct {
	T    *table.Table
	Cols []ColumnBins

	// src holds the bin codes: MemCodes when they are resident, else the
	// attached store (see source.go). Read them through Code, Source or
	// MaterializedCodes.
	src CodeSource

	// colBase[c] is the first global item id of column c; column c uses item
	// ids [colBase[c], colBase[c]+Cols[c].NumBins()).
	colBase []int32

	numItems int
}

// Bin computes the binning of t under the given options.
func Bin(t *table.Table, opt Options) (*Binned, error) {
	if opt.MaxBins > MaxBinsLimit {
		return nil, fmt.Errorf("binning: MaxBins %d exceeds %d (bin codes are uint16)", opt.MaxBins, MaxBinsLimit)
	}
	opt = opt.withDefaults()
	n := t.NumRows()
	b := &Binned{T: t}
	codes := make(MemCodes, 0, t.NumCols())
	rng := rand.New(rand.NewSource(opt.Seed))
	for _, col := range t.Columns() {
		var cb ColumnBins
		var err error
		if col.Kind == table.Numeric {
			cb, err = binNumeric(col, opt, rng)
		} else {
			cb, err = binCategorical(col, opt)
		}
		if err != nil {
			return nil, err
		}
		colCodes := make([]uint16, n)
		for r := 0; r < n; r++ {
			var bin int
			switch {
			case col.Missing(r):
				bin = cb.MissingBin
			case col.Kind == table.Numeric:
				bin = cb.BinOfNum(col.Nums[r])
			default:
				bin = cb.BinOfCat(col.Cats[r])
			}
			colCodes[r] = uint16(bin)
		}
		b.colBase = append(b.colBase, int32(b.numItems))
		b.numItems += cb.NumBins()
		b.Cols = append(b.Cols, cb)
		codes = append(codes, colCodes)
	}
	b.src = codes
	return b, nil
}

// Restore rebuilds a Binned from its serialized parts (package modelio):
// the per-column binnings and the code source — MemCodes for resident
// codes, or an opened store. It recomputes the derived item-id layout
// instead of re-running Bin and validates the codes as AttachStore does.
// Nothing is copied.
func Restore(t *table.Table, cols []ColumnBins, codes CodeSource) (*Binned, error) {
	if len(cols) != t.NumCols() {
		return nil, fmt.Errorf("binning: restore: %d column binnings for a %d-column table", len(cols), t.NumCols())
	}
	b := &Binned{T: t, Cols: cols}
	for c := range cols {
		nb := cols[c].NumBins()
		if nb == 0 {
			return nil, fmt.Errorf("binning: restore: column %d has no bins", c)
		}
		b.colBase = append(b.colBase, int32(b.numItems))
		b.numItems += nb
	}
	if err := b.AttachStore(codes); err != nil {
		return nil, err
	}
	return b, nil
}

// NumItems returns the size of the global item-id space.
func (b *Binned) NumItems() int { return b.numItems }

// NumRows returns the number of rows of the underlying table.
func (b *Binned) NumRows() int { return b.T.NumRows() }

// NumCols returns the number of columns.
func (b *Binned) NumCols() int { return len(b.Cols) }

// NumBins returns every column's bin count, in column order: what a code
// store sizes each column's cells by.
func (b *Binned) NumBins() []int {
	out := make([]int, len(b.Cols))
	for c := range b.Cols {
		out[c] = b.Cols[c].NumBins()
	}
	return out
}

// Item returns the global item id of the cell (row r, column c).
func (b *Binned) Item(c, r int) int32 {
	return b.colBase[c] + int32(b.Code(c, r))
}

// ItemOf returns the global item id of bin `bin` in column c.
func (b *Binned) ItemOf(c, bin int) int32 {
	return b.colBase[c] + int32(bin)
}

// ColOfItem returns the column index owning the given item id.
func (b *Binned) ColOfItem(item int32) int {
	// Binary search over colBase.
	lo, hi := 0, len(b.colBase)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b.colBase[mid] <= item {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// BinOfItem returns the within-column bin index of the given item id.
func (b *Binned) BinOfItem(item int32) int {
	return int(item - b.colBase[b.ColOfItem(item)])
}

// ItemLabel renders an item id as "COLUMN=binlabel".
func (b *Binned) ItemLabel(item int32) string {
	c := b.ColOfItem(item)
	return b.Cols[c].Col + "=" + b.Cols[c].Labels[b.BinOfItem(item)]
}

// CellLabel returns the bin label of the cell (row r, column c).
func (b *Binned) CellLabel(c, r int) string {
	return b.Cols[c].Labels[b.Code(c, r)]
}

// binNumeric computes bins for a numeric column.
func binNumeric(col *table.Column, opt Options, rng *rand.Rand) (ColumnBins, error) {
	cb := ColumnBins{Col: col.Name, Kind: table.Numeric, MissingBin: -1}
	// Collect non-missing values.
	vals := make([]float64, 0, len(col.Nums))
	hasMissing := false
	for _, v := range col.Nums {
		if math.IsNaN(v) {
			hasMissing = true
			continue
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		cb.Labels = []string{MissingLabel}
		cb.MissingBin = 0
		return cb, nil
	}
	sort.Float64s(vals)
	distinct := countDistinctSorted(vals)
	maxBins := opt.MaxBins
	if distinct < maxBins {
		maxBins = distinct
	}

	var cuts []float64
	if maxBins > 1 {
		switch opt.Strategy {
		case KDEValleys:
			cuts = kdeCuts(vals, maxBins, opt, rng)
		case Quantile:
			cuts = quantileCuts(vals, maxBins)
		case EqualWidth:
			cuts = equalWidthCuts(vals, maxBins)
		default:
			return cb, fmt.Errorf("binning: unknown strategy %v", opt.Strategy)
		}
	}
	cb.Cuts = cuts
	// Labels: interval strings.
	mn, mx := vals[0], vals[len(vals)-1]
	edges := append(append([]float64{mn}, cuts...), mx)
	for i := 0; i+1 < len(edges); i++ {
		cb.Labels = append(cb.Labels, fmt.Sprintf("%.4g..%.4g", edges[i], edges[i+1]))
	}
	if hasMissing {
		cb.MissingBin = len(cb.Labels)
		cb.Labels = append(cb.Labels, MissingLabel)
	}
	return cb, nil
}

// kdeCuts places cuts at KDE density valleys; when the density has no usable
// valleys (or too few), it falls back to quantile cuts.
func kdeCuts(sorted []float64, maxBins int, opt Options, rng *rand.Rand) []float64 {
	sample := sorted
	if len(sample) > opt.SampleSize {
		sample = make([]float64, opt.SampleSize)
		for i := range sample {
			sample[i] = sorted[rng.Intn(len(sorted))]
		}
	}
	kde := stats.NewKDE(sample, 0)
	valleys := kde.DensityValleys(opt.GridSize)
	// Keep only valleys strictly inside the data range.
	mn, mx := sorted[0], sorted[len(sorted)-1]
	inside := valleys[:0]
	for _, v := range valleys {
		if v > mn && v < mx {
			inside = append(inside, v)
		}
	}
	valleys = inside
	if len(valleys) == 0 {
		return quantileCuts(sorted, maxBins)
	}
	if len(valleys) > maxBins-1 {
		// Keep the deepest valleys (lowest density) to respect MaxBins.
		type vd struct {
			x, d float64
		}
		vds := make([]vd, len(valleys))
		for i, v := range valleys {
			vds[i] = vd{v, kde.Density(v)}
		}
		sort.Slice(vds, func(i, j int) bool { return vds[i].d < vds[j].d })
		vds = vds[:maxBins-1]
		valleys = valleys[:0]
		for _, v := range vds {
			valleys = append(valleys, v.x)
		}
		sort.Float64s(valleys)
	}
	return dedupeSorted(valleys)
}

func quantileCuts(sorted []float64, k int) []float64 {
	qs := stats.Quantiles(sorted, k)
	return dedupeSorted(qs[1 : len(qs)-1])
}

func equalWidthCuts(sorted []float64, k int) []float64 {
	mn, mx := sorted[0], sorted[len(sorted)-1]
	if mn == mx {
		return nil
	}
	cuts := make([]float64, 0, k-1)
	step := (mx - mn) / float64(k)
	for i := 1; i < k; i++ {
		cuts = append(cuts, mn+step*float64(i))
	}
	return dedupeSorted(cuts)
}

// binCategorical keeps categories as bins, grouping the tail into "other"
// when the column has more than MaxBins categories. Bin order is by
// descending frequency so bin labels are stable and informative.
func binCategorical(col *table.Column, opt Options) (ColumnBins, error) {
	cb := ColumnBins{Col: col.Name, Kind: table.Categorical, MissingBin: -1}
	dictSize := 0
	if col.Dict != nil {
		dictSize = col.Dict.Size()
	}
	freq := make([]int, dictSize)
	hasMissing := false
	for _, code := range col.Cats {
		if code < 0 {
			hasMissing = true
			continue
		}
		freq[code]++
	}
	order := make([]int, 0, dictSize)
	for code, f := range freq {
		if f > 0 {
			order = append(order, code)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if freq[order[i]] != freq[order[j]] {
			return freq[order[i]] > freq[order[j]]
		}
		return col.Dict.String(int32(order[i])) < col.Dict.String(int32(order[j]))
	})

	cb.CatToBin = make([]int, dictSize)
	for i := range cb.CatToBin {
		cb.CatToBin[i] = -1
	}
	if len(order) <= opt.MaxBins {
		for bin, code := range order {
			cb.CatToBin[code] = bin
			cb.Labels = append(cb.Labels, col.Dict.String(int32(code)))
		}
	} else {
		top := opt.MaxBins - 1
		for bin := 0; bin < top; bin++ {
			code := order[bin]
			cb.CatToBin[code] = bin
			cb.Labels = append(cb.Labels, col.Dict.String(int32(code)))
		}
		otherBin := top
		cb.Labels = append(cb.Labels, "other")
		for _, code := range order[top:] {
			cb.CatToBin[code] = otherBin
		}
	}
	// Codes never seen in the data but present in the dictionary map to the
	// last non-missing bin.
	lastBin := len(cb.Labels) - 1
	for i, bin := range cb.CatToBin {
		if bin < 0 {
			cb.CatToBin[i] = lastBin
		}
	}
	if len(cb.Labels) == 0 {
		// All-missing column.
		cb.Labels = []string{MissingLabel}
		cb.MissingBin = 0
		return cb, nil
	}
	if hasMissing {
		cb.MissingBin = len(cb.Labels)
		cb.Labels = append(cb.Labels, MissingLabel)
	}
	return cb, nil
}

func countDistinctSorted(sorted []float64) int {
	if len(sorted) == 0 {
		return 0
	}
	d := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			d++
		}
	}
	return d
}

func dedupeSorted(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
