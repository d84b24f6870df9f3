package rules

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/table"
)

// binned builds a binned table from categorical string columns where each
// distinct value is its own bin (MaxBins high enough).
func binned(t *testing.T, cols map[string][]string, order []string) *binning.Binned {
	t.Helper()
	tab := table.New("t")
	for _, name := range order {
		if err := tab.AddColumn(table.NewCategorical(name, cols[name])); err != nil {
			t.Fatal(err)
		}
	}
	b, err := binning.Bin(tab, binning.Options{MaxBins: 20})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// paperTable is the example table T̂ of Figure 3.
func paperTable(t *testing.T) *binning.Binned {
	t.Helper()
	return binned(t, map[string][]string{
		"CANCELLED": {"1", "1", "1", "1", "0", "0", "0", "0"},
		"DEP_TIME":  {"", "", "", "", "morning", "morning", "evening", "evening"},
		"YEAR":      {"2015", "2015", "2015", "2015", "2016", "2015", "2015", "2015"},
		"SCHED_DEP": {"afternoon", "afternoon", "morning", "morning", "morning", "morning", "evening", "afternoon"},
		"DISTANCE":  {"short", "medium", "medium", "short", "medium", "medium", "long", "long"},
	}, []string{"CANCELLED", "DEP_TIME", "YEAR", "SCHED_DEP", "DISTANCE"})
}

func TestMineEmptyTable(t *testing.T) {
	tab := table.New("t")
	b, err := binning.Bin(tab, binning.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Mine(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("rules on empty table: %d", len(rs))
	}
}

func TestMineFindsPlantedRule(t *testing.T) {
	// Planted: a=x AND b=y (first half of rows), c is noise-ish.
	n := 40
	a := make([]string, n)
	bb := make([]string, n)
	c := make([]string, n)
	for i := 0; i < n; i++ {
		if i < 20 {
			a[i], bb[i] = "x", "y"
		} else {
			a[i], bb[i] = "p", "q"
		}
		c[i] = []string{"u", "v"}[i%2]
	}
	b := binned(t, map[string][]string{"a": a, "b": bb, "c": c}, []string{"a", "b", "c"})
	rs, err := Mine(b, Options{MinSupport: 0.2, MinConfidence: 0.9, MinRuleSize: 2, MaxItemsetSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		lbl := r.Label(b)
		if len(r.Items) == 2 && strings.Contains(lbl, "a=x") && strings.Contains(lbl, "b=y") {
			found = true
			if r.Support != 0.5 {
				t.Fatalf("support = %v, want 0.5", r.Support)
			}
			if r.Tuples.Count() != 20 {
				t.Fatalf("tuples = %d", r.Tuples.Count())
			}
		}
	}
	if !found {
		t.Fatalf("planted rule not found among %d rules", len(rs))
	}
}

func TestRuleTuplesMatchDefinition(t *testing.T) {
	b := paperTable(t)
	rs, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.6, MinRuleSize: 2, MaxItemsetSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("expected rules on the paper table")
	}
	for _, r := range rs {
		// Check Tuples against a direct scan: a row satisfies the rule iff
		// it holds every item.
		for row := 0; row < b.NumRows(); row++ {
			holds := true
			for _, it := range r.Items {
				c := b.ColOfItem(it)
				if b.Item(c, row) != it {
					holds = false
					break
				}
			}
			if holds != r.Tuples.Contains(row) {
				t.Fatalf("rule %s: row %d holds=%v tuples=%v", r.Label(b), row, holds, r.Tuples.Contains(row))
			}
		}
		// Cols match item columns.
		want := map[int]bool{}
		for _, it := range r.Items {
			want[b.ColOfItem(it)] = true
		}
		if len(want) != len(r.Cols) {
			t.Fatalf("rule %s: cols %v vs items %v", r.Label(b), r.Cols, r.Items)
		}
		// Items are sorted and one per column.
		for i := 1; i < len(r.Items); i++ {
			if r.Items[i-1] >= r.Items[i] {
				t.Fatalf("items not sorted: %v", r.Items)
			}
		}
	}
}

func TestMinSupportRespected(t *testing.T) {
	b := paperTable(t)
	for _, minSup := range []float64{0.25, 0.5, 0.75} {
		rs, err := Mine(b, Options{MinSupport: minSup, MinConfidence: 0.1, MinRuleSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Support < minSup-1e-9 {
				t.Fatalf("minSup %v violated: %v", minSup, r.Support)
			}
		}
	}
}

func TestMinConfidenceRespected(t *testing.T) {
	b := paperTable(t)
	rs, err := Mine(b, Options{MinSupport: 0.2, MinConfidence: 0.9, MinRuleSize: 2, AllSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Confidence < 0.9-1e-9 {
			t.Fatalf("confidence %v < 0.9 for %s", r.Confidence, r.Label(b))
		}
	}
}

func TestMinRuleSizeRespected(t *testing.T) {
	b := paperTable(t)
	rs, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.5, MinRuleSize: 3, MaxItemsetSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Items) < 3 {
			t.Fatalf("rule size %d < 3", len(r.Items))
		}
	}
}

func TestMonotonicity(t *testing.T) {
	// Higher support threshold yields a subset of itemsets.
	b := paperTable(t)
	lo, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.5, MinRuleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Mine(b, Options{MinSupport: 0.5, MinConfidence: 0.5, MinRuleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	loSet := map[string]bool{}
	for _, r := range lo {
		loSet[key(r.Items)] = true
	}
	for _, r := range hi {
		if !loSet[key(r.Items)] {
			t.Fatalf("itemset %v frequent at 0.5 but not at 0.25", r.Items)
		}
	}
	if len(hi) > len(lo) {
		t.Fatalf("|hi| = %d > |lo| = %d", len(hi), len(lo))
	}
}

// bruteForceItemsets mines frequent itemsets (with one item per column) by
// exhaustive enumeration — the reference for Apriori correctness.
func bruteForceItemsets(b *binning.Binned, minCount, maxSize int) map[string]int {
	n := b.NumRows()
	m := b.NumCols()
	out := map[string]int{}
	// Enumerate all subsets of columns up to maxSize, then all bin choices.
	var cols []int
	var rec func(start int)
	rec = func(start int) {
		if len(cols) > 0 {
			// All bin combos for these columns.
			choices := make([]int, len(cols))
			for {
				items := make(Itemset, len(cols))
				for i, c := range cols {
					items[i] = b.ItemOf(c, choices[i])
				}
				sort.Slice(items, func(x, y int) bool { return items[x] < items[y] })
				count := 0
				for r := 0; r < n; r++ {
					ok := true
					for i, c := range cols {
						if int(b.Code(c, r)) != choices[i] {
							ok = false
							break
						}
					}
					if ok {
						count++
					}
				}
				if count >= minCount {
					out[key(items)] = count
				}
				// Next combo.
				i := 0
				for ; i < len(cols); i++ {
					choices[i]++
					if choices[i] < b.Cols[cols[i]].NumBins() {
						break
					}
					choices[i] = 0
				}
				if i == len(cols) {
					break
				}
			}
		}
		if len(cols) == maxSize {
			return
		}
		for c := start; c < m; c++ {
			cols = append(cols, c)
			rec(c + 1)
			cols = cols[:len(cols)-1]
		}
	}
	rec(0)
	return out
}

func TestAprioriMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 30 + rng.Intn(30)
		m := 3 + rng.Intn(3)
		cols := map[string][]string{}
		var order []string
		alphabet := []string{"a", "b", "c"}
		for c := 0; c < m; c++ {
			name := string(rune('p' + c))
			vals := make([]string, n)
			for r := range vals {
				vals[r] = alphabet[rng.Intn(len(alphabet))]
			}
			cols[name] = vals
			order = append(order, name)
		}
		b := binned(t, cols, order)
		minSup := 0.2
		minCount := int(math.Ceil(minSup * float64(n)))
		want := bruteForceItemsets(b, minCount, 3)

		// Mine with confidence 0 (epsilon) so every frequent itemset of
		// size >= 1 yields a rule; compare itemset families.
		rs, err := Mine(b, Options{MinSupport: minSup, MinConfidence: 1e-9, MinRuleSize: 2, MaxItemsetSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, r := range rs {
			got[key(r.Items)] = r.Tuples.Count()
		}
		// Every mined itemset must be in brute force with equal count.
		for k, cnt := range got {
			if want[k] != cnt {
				t.Fatalf("trial %d: itemset %s count %d, brute force %d", trial, k, cnt, want[k])
			}
		}
		// Every brute-force itemset of size >= 2 must be mined (confidence
		// epsilon passes any split).
		for k, cnt := range want {
			size := strings.Count(k, ",")
			if size < 2 {
				continue
			}
			if got[k] != cnt {
				t.Fatalf("trial %d: brute-force itemset %s (count %d) missing from mined set", trial, k, cnt)
			}
		}
	}
}

func TestAllSplitsEmitsMore(t *testing.T) {
	b := paperTable(t)
	one, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.5, MinRuleSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.5, MinRuleSize: 3, AllSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(one) {
		t.Fatalf("AllSplits %d < deduped %d", len(all), len(one))
	}
}

func TestTargetColumns(t *testing.T) {
	b := paperTable(t)
	rs, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.5, MinRuleSize: 3, TargetCols: []string{"CANCELLED"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("expected target rules")
	}
	cancIdx := b.T.ColumnIndex("CANCELLED")
	for _, r := range rs {
		has := false
		for _, c := range r.Cols {
			if c == cancIdx {
				has = true
			}
		}
		if !has {
			t.Fatalf("rule %s lacks target column", r.Label(b))
		}
		// Tuples homogeneous in target bin.
		var bin = -1
		ok := true
		r.Tuples.ForEach(func(row int) bool {
			bcode := int(b.Code(cancIdx, row))
			if bin == -1 {
				bin = bcode
			} else if bin != bcode {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			t.Fatalf("rule %s mixes target bins", r.Label(b))
		}
	}
}

func TestTargetColumnsUnknown(t *testing.T) {
	b := paperTable(t)
	if _, err := Mine(b, Options{TargetCols: []string{"nope"}}); err == nil {
		t.Fatal("unknown target column should error")
	}
}

func TestMaxRulesCap(t *testing.T) {
	b := paperTable(t)
	rs, err := Mine(b, Options{MinSupport: 0.2, MinConfidence: 0.3, MinRuleSize: 2, MaxItemsetSize: 4, AllSplits: true, MaxRules: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) > 5 {
		t.Fatalf("cap violated: %d", len(rs))
	}
}

func TestRuleLabel(t *testing.T) {
	b := paperTable(t)
	rs, err := Mine(b, Options{MinSupport: 0.25, MinConfidence: 0.5, MinRuleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("need rules")
	}
	lbl := rs[0].Label(b)
	if !strings.Contains(lbl, "=>") || !strings.Contains(lbl, "supp") {
		t.Fatalf("label = %q", lbl)
	}
}

func TestItemsetString(t *testing.T) {
	s := Itemset{1, 5, 9}
	if got := s.String(); got != "{1, 5, 9}" {
		t.Fatalf("String = %q", got)
	}
}

func TestForEachSplitCount(t *testing.T) {
	items := Itemset{1, 2, 3}
	n := 0
	forEachSplit(items, func(lhs, rhs Itemset) {
		n++
		if len(lhs)+len(rhs) != 3 {
			t.Fatal("split sizes must sum")
		}
	})
	if n != 6 { // 2^3 - 2
		t.Fatalf("splits = %d, want 6", n)
	}
}

func TestMergeSorted(t *testing.T) {
	got := mergeSorted(Itemset{1, 3, 5}, Itemset{2, 3, 6})
	want := Itemset{1, 2, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("merge = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v", got)
		}
	}
}

func TestNumericRuleMining(t *testing.T) {
	// Numeric columns with a planted pattern: high x co-occurs with high y.
	n := 60
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		if i < 30 {
			x[i] = 100 + rng.Float64()*10
			y[i] = 100 + rng.Float64()*10
		} else {
			x[i] = rng.Float64() * 10
			y[i] = rng.Float64() * 10
		}
		z[i] = rng.Float64()
	}
	tab := table.New("t")
	for name, vals := range map[string][]float64{"x": x, "y": y, "z": z} {
		if err := tab.AddColumn(table.NewNumeric(name, vals)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := binning.Bin(tab, binning.Options{MaxBins: 2, Strategy: binning.Quantile})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Mine(b, Options{MinSupport: 0.3, MinConfidence: 0.8, MinRuleSize: 2, MaxItemsetSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	xi, yi := tab.ColumnIndex("x"), tab.ColumnIndex("y")
	for _, r := range rs {
		if len(r.Cols) == 2 && r.Cols[0] == min(xi, yi) && r.Cols[1] == max(xi, yi) {
			found = true
		}
	}
	if !found {
		t.Fatalf("x-y rule not found in %d rules", len(rs))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
