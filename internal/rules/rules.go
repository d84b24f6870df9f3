// Package rules implements association-rule mining over binned tables
// (Def. 3.4), in the style of the classic Apriori algorithm of Agrawal &
// Srikant (paper reference [2]) which the paper's implementation uses via
// efficient-apriori.
//
// Transactions are table rows; items are (column, bin) pairs — the global
// item ids assigned by package binning. Because a row holds exactly one item
// per column, candidate itemsets mixing two items of the same column are
// pruned immediately. Support counting is vertical: every item carries the
// bitset of rows containing it and itemset support is a bitset intersection.
//
// For the paper's cell-coverage metric (Def. 3.6) only the itemset of a rule
// matters: a rule R is covered iff its column set is selected and some
// selected row satisfies *all* items of R (both sides), and the cells it
// describes are rows(R) × cols(R). Any two rules with the same underlying
// itemset are therefore coverage-equivalent, so by default the miner emits
// one rule per frequent itemset that admits at least one split with
// sufficient confidence (the maximum-confidence split is kept for display).
// Set Options.AllSplits to emit every qualifying split instead.
package rules

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"subtab/internal/binning"
	"subtab/internal/bitset"
)

// Itemset is a sorted set of global item ids.
type Itemset []int32

// String renders the itemset using the binned table's labels.
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = fmt.Sprintf("%d", it)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Rule is an association rule LHS → RHS over binned items.
type Rule struct {
	LHS, RHS   Itemset
	Items      Itemset // LHS ∪ RHS, sorted
	Support    float64 // fraction of all rows satisfying Items
	Confidence float64
	Tuples     *bitset.Set // rows satisfying Items (T_R of Def. 3.4)
	Cols       []int       // sorted column indices used by the rule (U_R)
}

// Label renders the rule with human-readable item labels.
func (r *Rule) Label(b *binning.Binned) string {
	part := func(items Itemset) string {
		ps := make([]string, len(items))
		for i, it := range items {
			ps[i] = b.ItemLabel(it)
		}
		return strings.Join(ps, " AND ")
	}
	return fmt.Sprintf("%s => %s  (supp %.3f, conf %.3f)",
		part(r.LHS), part(r.RHS), r.Support, r.Confidence)
}

// Options configures mining. Defaults follow the paper's §6.1 settings.
type Options struct {
	// MinSupport is the minimum fraction of rows an itemset must cover
	// (paper default 0.1).
	MinSupport float64
	// MinConfidence is the minimum rule confidence (paper default 0.6).
	MinConfidence float64
	// MinRuleSize is the minimum number of items in a rule, both sides
	// combined (paper default 3).
	MinRuleSize int
	// MaxItemsetSize bounds the frequent-itemset search depth (default 4).
	MaxItemsetSize int
	// TargetCols restricts mining to rules involving the target columns. As
	// in the paper, the data is split by the binned values of the target
	// columns, rules are mined per subset, and the subset's target items are
	// attached to each rule.
	TargetCols []string
	// AllSplits emits every qualifying LHS→RHS split instead of one
	// coverage-equivalent rule per frequent itemset.
	AllSplits bool
	// MaxRules caps the output (0 = unlimited); rules with higher support
	// are kept first.
	MaxRules int
	// IncludeMissing treats missing-value bins as items. Off by default:
	// standard market-basket semantics treat an absent value as no item, and
	// near-ubiquitous NaN bins otherwise flood the rule set with
	// uninformative co-missingness rules.
	IncludeMissing bool
	// MaxItemShare drops items whose relative frequency exceeds this bound
	// (default 0.9): a value present in nearly every row carries no
	// information and only manufactures junk rules.
	MaxItemShare float64
}

func (o Options) withDefaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.1
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.6
	}
	if o.MinRuleSize <= 0 {
		o.MinRuleSize = 3
	}
	if o.MaxItemsetSize <= 0 {
		o.MaxItemsetSize = 4
	}
	if o.MaxItemsetSize < o.MinRuleSize {
		o.MaxItemsetSize = o.MinRuleSize
	}
	if o.MaxItemShare <= 0 || o.MaxItemShare > 1 {
		o.MaxItemShare = 0.9
	}
	return o
}

// Mine discovers association rules in the binned table.
func Mine(b *binning.Binned, opt Options) ([]Rule, error) {
	opt = opt.withDefaults()
	n := b.NumRows()
	if n == 0 {
		return nil, nil
	}
	// Mining reads every cell many times over; a store-backed binning
	// (out-of-core selection) materializes a private in-memory copy of the
	// codes first rather than hammering the store with random access.
	codes, err := b.MaterializedCodes()
	if err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	if len(opt.TargetCols) == 0 {
		all := bitset.New(n)
		all.Fill()
		return capRules(mineSubset(b, codes, all, nil, opt), opt.MaxRules), nil
	}

	// Target-column mode: split rows by the target columns' bin combination,
	// mine each subset, and attach the subset's target items to every rule.
	targetIdx := make([]int, 0, len(opt.TargetCols))
	for _, name := range opt.TargetCols {
		ci := b.T.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("rules: unknown target column %q", name)
		}
		targetIdx = append(targetIdx, ci)
	}
	type part struct {
		rows  *bitset.Set
		items Itemset
	}
	parts := make(map[string]*part)
	for r := 0; r < n; r++ {
		var key strings.Builder
		items := make(Itemset, len(targetIdx))
		for i, ci := range targetIdx {
			items[i] = b.ItemOf(ci, int(codes[ci][r]))
			fmt.Fprintf(&key, "%d,", items[i])
		}
		k := key.String()
		p, ok := parts[k]
		if !ok {
			sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
			p = &part{rows: bitset.New(n), items: items}
			parts[k] = p
		}
		p.rows.Add(r)
	}
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []Rule
	for _, k := range keys {
		p := parts[k]
		// Rule sizes include the attached target items; mined itemsets may be
		// correspondingly smaller.
		sub := opt
		sub.MinRuleSize = opt.MinRuleSize - len(p.items)
		if sub.MinRuleSize < 1 {
			sub.MinRuleSize = 1
		}
		sub.MaxItemsetSize = opt.MaxItemsetSize - len(p.items)
		if sub.MaxItemsetSize < sub.MinRuleSize {
			sub.MaxItemsetSize = sub.MinRuleSize
		}
		mined := mineSubset(b, codes, p.rows, skipCols(targetIdx), sub)
		for i := range mined {
			r := &mined[i]
			r.RHS = append(append(Itemset{}, r.RHS...), p.items...)
			r.Items = mergeSorted(r.Items, p.items)
			r.Cols = mergeCols(r.Cols, targetIdx)
			r.Support = float64(r.Tuples.Count()) / float64(n)
		}
		out = append(out, mined...)
	}
	return capRules(out, opt.MaxRules), nil
}

func skipCols(cols []int) map[int]bool {
	m := make(map[int]bool, len(cols))
	for _, c := range cols {
		m[c] = true
	}
	return m
}

// mineSubset runs Apriori over the rows in `rows`, excluding columns in
// `skip`. Support thresholds are relative to |rows|.
func mineSubset(b *binning.Binned, allCodes [][]uint16, rows *bitset.Set, skip map[int]bool, opt Options) []Rule {
	n := b.NumRows()
	sz := rows.Count()
	if sz == 0 {
		return nil
	}
	minCount := int(math.Ceil(opt.MinSupport * float64(sz)))
	if minCount < 1 {
		minCount = 1
	}
	maxCount := int(opt.MaxItemShare * float64(sz))

	// Level 1: frequent items with their row bitsets (restricted to rows).
	type node struct {
		items Itemset
		set   *bitset.Set
	}
	var level []node
	itemSets := make(map[int32]*bitset.Set)
	for c := 0; c < b.NumCols(); c++ {
		if skip[c] {
			continue
		}
		missingBin := b.Cols[c].MissingBin
		perBin := make(map[uint16]*bitset.Set)
		codes := allCodes[c]
		rows.ForEach(func(r int) bool {
			code := codes[r]
			if !opt.IncludeMissing && int(code) == missingBin {
				return true
			}
			s, ok := perBin[code]
			if !ok {
				s = bitset.New(n)
				perBin[code] = s
			}
			s.Add(r)
			return true
		})
		for code, s := range perBin {
			if cnt := s.Count(); cnt >= minCount && cnt <= maxCount {
				id := b.ItemOf(c, int(code))
				itemSets[id] = s
			}
		}
	}
	ids := make([]int32, 0, len(itemSets))
	for id := range itemSets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		level = append(level, node{items: Itemset{id}, set: itemSets[id]})
	}

	// Frequent itemsets of every size, keyed for subset pruning.
	frequent := make(map[string]*bitset.Set)
	var allFrequent []node
	for _, nd := range level {
		frequent[key(nd.items)] = nd.set
		allFrequent = append(allFrequent, nd)
	}

	for size := 2; size <= opt.MaxItemsetSize && len(level) > 1; size++ {
		var next []node
		// Join step: combine itemsets sharing the first size-2 items.
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, c := level[i].items, level[j].items
				if !samePrefix(a, c) {
					break // level is sorted; later j's share even less
				}
				last := c[len(c)-1]
				if b.ColOfItem(last) == b.ColOfItem(a[len(a)-1]) {
					continue // same column: support is zero by construction
				}
				cand := append(append(Itemset{}, a...), last)
				if size > 2 && !allSubsetsFrequent(cand, frequent) {
					continue
				}
				s := bitset.Intersect(level[i].set, itemSets[last])
				if s.Count() >= minCount {
					nd := node{items: cand, set: s}
					next = append(next, nd)
					frequent[key(cand)] = s
					allFrequent = append(allFrequent, nd)
				}
			}
		}
		level = next
	}

	// Rule generation.
	var out []Rule
	for _, nd := range allFrequent {
		if len(nd.items) < opt.MinRuleSize {
			continue
		}
		support := float64(nd.set.Count()) / float64(sz)
		suppCount := nd.set.Count()
		if opt.AllSplits {
			out = append(out, enumerateSplits(b, nd.items, nd.set, suppCount, support, frequent, opt)...)
			continue
		}
		// One coverage-equivalent rule: the maximum-confidence split.
		bestConf := -1.0
		var bestLHS, bestRHS Itemset
		forEachSplit(nd.items, func(lhs, rhs Itemset) {
			if len(lhs) == 0 || len(rhs) == 0 {
				return
			}
			ls, ok := frequent[key(lhs)]
			if !ok {
				return // LHS infrequent: cannot bound confidence; skip
			}
			conf := float64(suppCount) / float64(ls.Count())
			if conf > bestConf {
				bestConf = conf
				bestLHS = append(Itemset{}, lhs...)
				bestRHS = append(Itemset{}, rhs...)
			}
		})
		if bestConf >= opt.MinConfidence {
			out = append(out, makeRule(b, bestLHS, bestRHS, nd.items, nd.set, support, bestConf))
		}
	}
	return out
}

func enumerateSplits(b *binning.Binned, items Itemset, set *bitset.Set, suppCount int, support float64, frequent map[string]*bitset.Set, opt Options) []Rule {
	var out []Rule
	forEachSplit(items, func(lhs, rhs Itemset) {
		if len(lhs) == 0 || len(rhs) == 0 {
			return
		}
		ls, ok := frequent[key(lhs)]
		if !ok {
			return
		}
		conf := float64(suppCount) / float64(ls.Count())
		if conf >= opt.MinConfidence {
			out = append(out, makeRule(b,
				append(Itemset{}, lhs...), append(Itemset{}, rhs...),
				items, set, support, conf))
		}
	})
	return out
}

func makeRule(b *binning.Binned, lhs, rhs, items Itemset, set *bitset.Set, support, conf float64) Rule {
	cols := make([]int, 0, len(items))
	for _, it := range items {
		cols = append(cols, b.ColOfItem(it))
	}
	sort.Ints(cols)
	return Rule{
		LHS: lhs, RHS: rhs,
		Items:      append(Itemset{}, items...),
		Support:    support,
		Confidence: conf,
		Tuples:     set,
		Cols:       cols,
	}
}

// forEachSplit enumerates every partition of items into (lhs, rhs) with both
// sides non-empty. items must be small (rule sizes are <= ~5).
func forEachSplit(items Itemset, fn func(lhs, rhs Itemset)) {
	k := len(items)
	if k > 20 {
		return // defensive: never expected
	}
	var lhs, rhs Itemset
	for mask := 1; mask < (1<<k)-1; mask++ {
		lhs, rhs = lhs[:0], rhs[:0]
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				lhs = append(lhs, items[i])
			} else {
				rhs = append(rhs, items[i])
			}
		}
		fn(lhs, rhs)
	}
}

func samePrefix(a, b Itemset) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand Itemset, frequent map[string]*bitset.Set) bool {
	sub := make(Itemset, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != drop {
				sub = append(sub, it)
			}
		}
		if _, ok := frequent[key(sub)]; !ok {
			return false
		}
	}
	return true
}

func key(items Itemset) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d,", it)
	}
	return b.String()
}

func mergeSorted(a, b Itemset) Itemset {
	out := make(Itemset, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeCols(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, x := range append(append([]int{}, a...), b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// capRules keeps the max rules of highest support, in a copy: a prefix of
// rs would keep every dropped rule's tuple bitset reachable.
func capRules(rs []Rule, max int) []Rule {
	if max <= 0 || len(rs) <= max {
		return rs
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Support > rs[j].Support })
	return slices.Clone(rs[:max])
}
