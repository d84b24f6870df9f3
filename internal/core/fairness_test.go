package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"subtab/internal/cluster"
	"subtab/internal/table"
)

// skewedTable has a protected column with a dominant group (90%) and two
// small minorities (5% each), plus feature columns correlated with groups.
func skewedTable(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	group := make([]string, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		p := rng.Float64()
		switch {
		case p < 0.9:
			group[i] = "majority"
			x[i] = rng.Float64() * 10
		case p < 0.95:
			group[i] = "minorityA"
			x[i] = 100 + rng.Float64()*10
		default:
			group[i] = "minorityB"
			x[i] = 200 + rng.Float64()*10
		}
		y[i] = rng.Float64() * 5
	}
	tab := table.New("skewed")
	if err := tab.AddColumn(table.NewCategorical("group", group)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewNumeric("x", x)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewNumeric("y", y)); err != nil {
		t.Fatal(err)
	}
	return tab
}

// fairSelect selects k×l rows of m under a group quota on column "group".
func fairSelect(t *testing.T, m *Model, k, l, min int) *SubTable {
	t.Helper()
	return mustSelect(t, m, ExploreSpec{K: k, L: l, Fairness: &FairnessOptions{GroupCol: "group", MinPerGroup: min}})
}

// requireGroups fails unless every group of the skewed table has at least
// min of st's rows.
func requireGroups(t *testing.T, m *Model, st *SubTable, min int) {
	t.Helper()
	counts, err := m.GroupCounts(st, "group")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"majority", "minorityA", "minorityB"} {
		if counts[g] < min {
			t.Fatalf("group %q has %d rows, want >= %d: %v", g, counts[g], min, counts)
		}
	}
}

func TestSelectFairCoversAllGroups(t *testing.T) {
	tab := skewedTable(t, 600, 31)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := fairSelect(t, m, 6, 3, 1)
	requireGroups(t, m, st, 1)
	if len(st.SourceRows) != 6 {
		t.Fatalf("rows = %d, want 6 (fairness must not change k)", len(st.SourceRows))
	}
}

func TestSelectFairMinPerGroup(t *testing.T) {
	tab := skewedTable(t, 600, 32)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireGroups(t, m, fairSelect(t, m, 9, 3, 2), 2)
}

// TestFairnessPagedMatchesResident is the regression test for the group
// repair that rendered through the resident table's cells: on a model whose
// codes and cells are paged out it indexed cells that were not there and
// panicked. The quota now runs inside the representatives stage and renders
// through the render stage, so the paged model displays exactly the
// resident one's rows, columns and cells.
func TestFairnessPagedMatchesResident(t *testing.T) {
	resident, err := Preprocess(skewedTable(t, 600, 32), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	paged, err := Preprocess(skewedTable(t, 600, 32), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	pageOut(t, paged)
	want := fairSelect(t, resident, 9, 3, 2)
	got := fairSelect(t, paged, 9, 3, 2)
	if fpr(got) != fpr(want) {
		t.Fatalf("paged display diverged:\n got %s\nwant %s", fpr(got), fpr(want))
	}
	requireGroups(t, resident, got, 2)
}

func TestSelectFairUnknownColumn(t *testing.T) {
	tab := skewedTable(t, 100, 33)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, fair := range []FairnessOptions{
		{GroupCol: "nope"},
		{GroupCol: "group", MinPerGroup: 2}, // 3 groups × 2 rows do not fit k = 4
	} {
		_, err := m.SelectExplore(ExploreSpec{K: 4, L: 2, Fairness: &fair})
		var r *Refusal
		if !errors.As(err, &r) || r.Reason != ReasonBadSpec {
			t.Fatalf("fairness %+v: got %v, want a %s refusal", fair, err, ReasonBadSpec)
		}
	}
}

func TestSelectFairAlreadyFair(t *testing.T) {
	// With a balanced group column, the plain selection is already fair;
	// the quota must leave it exactly as it is.
	rng := rand.New(rand.NewSource(34))
	n := 300
	group := make([]string, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		group[i] = []string{"a", "b"}[i%2]
		x[i] = float64(i%2)*100 + rng.Float64()*10
	}
	tab := table.New("balanced")
	if err := tab.AddColumn(table.NewCategorical("group", group)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(table.NewNumeric("x", x)); err != nil {
		t.Fatal(err)
	}
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := fairSelect(t, m, 4, 2, 1)
	counts, err := m.GroupCounts(st, "group")
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] < 1 || counts["b"] < 1 {
		t.Fatalf("balanced groups should both appear: %v", counts)
	}
	if plain := mustSelect(t, m, ExploreSpec{K: 4, L: 2}); fpr(st) != fpr(plain) {
		t.Fatalf("quota moved an already fair display:\n got %s\nwant %s", fpr(st), fpr(plain))
	}
}

func TestGroupCountsErrors(t *testing.T) {
	tab := skewedTable(t, 100, 35)
	m, err := Preprocess(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Select(3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.GroupCounts(st, "nope"); err == nil {
		t.Fatal("unknown column should error")
	}
}

// TestGroupQuotaProperties sweeps the group quota over
// TestPlanMatchesExecution's layouts × shapes × scales, on low-bin columns
// with k >= bins × min. Wherever the spec plans, the display is exactly
// k×l; every group holds at least min(MinPerGroup, its clustered rows) of
// the displayed rows; a display whose unconstrained twin already met the
// quota is that twin byte for byte; and the three local layouts agree byte
// for byte.
func TestGroupQuotaProperties(t *testing.T) {
	layouts, shapes, scales := executionSweep(t)
	local := map[string]bool{"resident": true, "paged": true, "sharded-local": true}
	const l = 3
	for _, fair := range []struct {
		k   int
		opt FairnessOptions
	}{
		{6, FairnessOptions{GroupCol: "CANCELLATION_REASON"}}, // four groups, three of them rare
		{4, FairnessOptions{GroupCol: "CANCELLED", MinPerGroup: 2}},
	} {
		moved := 0
		for shape, base := range shapes {
			for scName, sc := range scales {
				agreed := ""
				for layout, m := range layouts {
					name := fmt.Sprintf("%s %+v / %s / %s / %s", fair.opt.GroupCol, fair.opt.MinPerGroup, layout, shape, scName)
					spec := base
					spec.K, spec.L, spec.Scale = fair.k, l, &sc
					plain, plainErr := m.SelectExplore(spec)
					spec.Fairness = &fair.opt
					st, err := m.SelectExplore(spec)
					if err != nil || plainErr != nil {
						// Which cells plan is TestPlanMatchesExecution's
						// business; the quota must not change the answer.
						if fmt.Sprint(err) != fmt.Sprint(plainErr) {
							t.Errorf("%s: with the quota %v, without %v", name, err, plainErr)
						}
						continue
					}
					if len(st.SourceRows) != fair.k || len(st.ColIdx) != l || st.View.NumRows() != fair.k || st.View.NumCols() != l {
						t.Errorf("%s: got %dx%d (view %dx%d), want %dx%d", name, len(st.SourceRows), len(st.ColIdx), st.View.NumRows(), st.View.NumCols(), fair.k, l)
						continue
					}

					// The rows the selection clustered, and each group's want.
					p, err := m.plan(spec)
					if err != nil {
						t.Fatal(err)
					}
					rows, csrc, _, err := m.clusterRows(p, spec)
					if err != nil {
						t.Fatal(err)
					}
					code := m.B.Code
					if csrc != nil {
						code = csrc.Code
					}
					gi := m.T.ColumnIndex(fair.opt.GroupCol)
					want := make([]int, m.B.Cols[gi].NumBins())
					for i := 0; i < rows.n; i++ {
						want[code(gi, rows.at(i))]++
					}
					short := func(st *SubTable) bool {
						have := make([]int, len(want))
						for _, r := range st.SourceRows {
							have[code(gi, r)]++
						}
						for g := range want {
							if have[g] < min(max(fair.opt.MinPerGroup, 1), want[g]) {
								return true
							}
						}
						return false
					}
					switch {
					case short(st):
						t.Errorf("%s: a group is short of its quota: %v", name, st.SourceRows)
					case !short(plain) && fpr(st) != fpr(plain):
						t.Errorf("%s: the quota moved a display that met it:\n got %s\nwant %s", name, fpr(st), fpr(plain))
					case short(plain):
						moved++
					}
					if local[layout] {
						if agreed == "" {
							agreed = fpr(st)
						} else if fpr(st) != agreed {
							t.Errorf("%s: local layouts disagree:\n got %s\nwant %s", name, fpr(st), agreed)
						}
					}
				}
			}
		}
		if moved == 0 {
			t.Errorf("%s: no unconstrained display was short of the quota, so the sweep never ran the swap", fair.opt.GroupCol)
		}
		t.Logf("%s: the quota moved rows in %d cells", fair.opt.GroupCol, moved)
	}
}

// TestGroupQuotaRule pins the quota rule on a hand-built clustering: short
// groups fill lowest bin first, each with its unchosen row of smallest
// (distance, index), replacing in place the representative of largest
// (distance, index) among the groups above their want.
func TestGroupQuotaRule(t *testing.T) {
	group := []uint16{0, 0, 0, 0, 0, 1, 1, 2}
	res := &cluster.Result{Dist: []float64{.1, .5, .9, .5, .3, .7, .2, .4}}
	src := &shardMemSource{codes: [][]uint16{group}, blockRows: len(group)}
	for _, tc := range []struct {
		reps, want []int
	}{
		// Group 1 takes row 6 for the farthest row 2; group 2 takes row 7
		// for row 3, which ties row 1's distance at a higher index.
		{[]int{0, 1, 2, 3}, []int{0, 1, 6, 7}},
		// One representative (fewer than k): no group holds more than its
		// want, so there is nothing to trade away.
		{[]int{4}, []int{4}},
	} {
		reps := append([]int(nil), tc.reps...)
		groupQuota(reps, res, allRows(len(group)), 0, 1, 3, src)
		if !slices.Equal(reps, tc.want) {
			t.Errorf("quota over %v = %v, want %v", tc.reps, reps, tc.want)
		}
	}
}
