// The capability matrix as one table. TestPlanMatrix runs planSelect alone —
// no model is built — over every store layout × request shape × scale
// setting and pins, per cell, the stage list with the variant each stage
// runs, or the reason the layout refuses the shape. TestPlanMatchesExecution
// then builds one small real model per layout and checks that what the
// executor does agrees with what the planner said.
package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/query"
	"subtab/internal/shard"
	"subtab/internal/table"
)

// matrixBins is the binning schema the matrix plans against: numeric x with
// cuts at 10/20/30 (so x <= 20 is exact and x < 15 leaves a residual bin)
// and two more columns to project and group by.
var matrixBins = []binning.ColumnBins{
	{Col: "x", Kind: table.Numeric, Labels: []string{"a", "b", "c", "d"}, Cuts: []float64{10, 20, 30}, MissingBin: -1},
	{Col: "y", Kind: table.Numeric, Labels: []string{"a", "b"}, Cuts: []float64{5}, MissingBin: -1},
	{Col: "g", Kind: table.Categorical, Labels: []string{"p", "q"}, CatToBin: []int{0, 1}, MissingBin: -1},
}

const matrixRows = 1000

var matrixLayouts = []struct {
	name string
	caps caps
}{
	{"local", caps{}},
	{"remote+sampler", caps{paged: true, remote: true, sampler: true}},
	{"remote-no-sampler", caps{paged: true, remote: true}},
}

// matrixShapes pairs each request shape with the candidate count its row
// stage is taken to produce (what the one run-time decision sees).
var matrixShapes = []struct {
	name string
	spec ExploreSpec
	n    int
}{
	{"plain", ExploreSpec{}, matrixRows},
	{"where-exact", ExploreSpec{Where: []query.Predicate{{Col: "x", Op: query.Leq, Num: 20}}}, 100},
	{"where-residual", ExploreSpec{Where: []query.Predicate{{Col: "x", Op: query.Lt, Num: 15}}}, 100},
	{"scope", ExploreSpec{Scope: []int{3, 5, 8}}, 100},
	{"covered", ExploreSpec{Covered: bitset.New(8)}, matrixRows},
	{"column-bias", ExploreSpec{ColBias: []float64{1, 1, 1}}, matrixRows},
	{"limit", ExploreSpec{Query: &query.Query{Limit: 100}}, 100},
	{"projection", ExploreSpec{Query: &query.Query{Select: []string{"x", "g"}}}, matrixRows},
	{"group-by", ExploreSpec{Query: &query.Query{GroupBy: []string{"g"}, Aggs: []query.Aggregate{{Func: query.Count}}}}, 100},
	{"order-by-in-projection", ExploreSpec{Query: &query.Query{Select: []string{"x", "g"}, OrderBy: "x"}}, matrixRows},
	{"order-by-outside-projection", ExploreSpec{Query: &query.Query{Select: []string{"x", "g"}, OrderBy: "y"}}, matrixRows},
	{"group-quota", ExploreSpec{Fairness: &FairnessOptions{GroupCol: "g", MinPerGroup: 2}}, matrixRows},
}

// matrixScales: off, active for every shape, and a threshold the filtered
// shapes' 100 candidates fall under while the whole table clears it.
var matrixScales = []struct {
	name  string
	scale ScaleOptions
}{
	{"off", ScaleOptions{}},
	{"active", ScaleOptions{Threshold: 1}},
	{"threshold>matched", ScaleOptions{Threshold: 500}},
}

// cell renders a plan the way the matrix records it: the row source, then
// the stage list with each stage's variant.
func cell(p *plan, n int) (string, error) {
	stages, err := p.stages(n)
	if err != nil {
		return "", err
	}
	scaled, _ := p.scaled(n)
	parts := []string{"rows(" + string(p.rows) + ")"}
	for _, s := range stages {
		v := ""
		switch s {
		case StageStratifiedSample, StageShardScatter:
			v = string(p.sample)
		case StageVectorBuild:
			if v = string(p.vectors); scaled {
				v = "slab"
			}
		case StageKMeans:
			if v = "exact"; scaled {
				v = "mini-batch"
			}
		case StageRepresentatives:
			if p.quotaMin > 0 {
				v = "group-quota"
			}
		case StageColumnChoice:
			v = string(p.columns)
		}
		if v != "" {
			v = "(" + v + ")"
		}
		parts = append(parts, string(s)+v)
	}
	return strings.Join(parts, " "), nil
}

// outcome is a matrix cell: the rendered plan, or "REFUSED <reason>".
func outcome(spec ExploreSpec, c caps, n int) string {
	p, err := planSelect(spec, c)
	var got string
	if err == nil {
		got, err = cell(p, n)
	}
	var r *Refusal
	switch {
	case errors.As(err, &r):
		return "REFUSED " + string(r.Reason)
	case err != nil:
		return "ERROR " + err.Error()
	}
	return got
}

func TestPlanMatrix(t *testing.T) {
	seen := 0
	for _, lay := range matrixLayouts {
		c := lay.caps
		c.rows, c.dim, c.bins = matrixRows, 16, matrixBins
		for _, sh := range matrixShapes {
			for _, sc := range matrixScales {
				key := lay.name + " / " + sh.name + " / " + sc.name
				spec := sh.spec
				spec.K, spec.L, spec.Scale = 5, 2, &sc.scale
				want, ok := planMatrix[key]
				if !ok {
					t.Errorf("matrix has no cell %q", key)
					continue
				}
				seen++
				if got := outcome(spec, c, sh.n); got != want {
					t.Errorf("%s:\n got %s\nwant %s", key, got, want)
				}
			}
		}
	}
	if seen != len(planMatrix) {
		t.Errorf("matrix lists %d cells, the sweep visited %d", len(planMatrix), seen)
	}

	// Shape refusals do not depend on the layout.
	c := caps{rows: matrixRows, dim: 16, bins: matrixBins}
	for _, tc := range []struct {
		spec ExploreSpec
		want Reason
	}{
		{ExploreSpec{K: 0, L: 2}, ReasonBadShape},
		{ExploreSpec{K: 5, L: -1}, ReasonBadShape},
		{ExploreSpec{K: 5, L: 2, Targets: []string{"nope"}}, ReasonUnknownTarget},
		{ExploreSpec{K: 5, L: 1, Targets: []string{"x", "y"}}, ReasonTooManyTargets},
		{ExploreSpec{K: 5, L: 2, Scope: []int{4, 2}}, ReasonBadSpec},
		{ExploreSpec{K: 5, L: 2, Scope: []int{matrixRows}}, ReasonBadSpec},
		{ExploreSpec{K: 5, L: 2, Query: &query.Query{Select: []string{"nope"}}}, ReasonBadSpec},
		{ExploreSpec{K: 5, L: 2, Query: &query.Query{Select: []string{"x", "x"}}}, ReasonBadSpec},
		{ExploreSpec{K: 5, L: 2, Query: &query.Query{}, Scope: []int{1}}, ReasonBadSpec},
		{ExploreSpec{K: 5, L: 2, Fairness: &FairnessOptions{GroupCol: "nope"}}, ReasonBadSpec},
		{ExploreSpec{K: 5, L: 2, Fairness: &FairnessOptions{GroupCol: "x", MinPerGroup: 2}}, ReasonBadSpec},
		{ExploreSpec{K: 3, L: 2, Fairness: &FairnessOptions{GroupCol: "x"}}, ReasonBadSpec},
	} {
		tc.spec.Scale = &ScaleOptions{}
		if got := outcome(tc.spec, c, 1); got != "REFUSED "+string(tc.want) {
			t.Errorf("spec %+v: got %s, want refusal %s", tc.spec, got, tc.want)
		}
	}

	// Whole-table operations outside selection: one reason each.
	for _, reason := range []Reason{ReasonRemoteSession, ReasonRemoteDrill, ReasonRemoteAppend, ReasonRemoteRules} {
		var r *Refusal
		if err := requireLocal(caps{paged: true, remote: true}, reason); !errors.As(err, &r) || r.Reason != reason {
			t.Errorf("requireLocal(%s) on a remote layout = %v", reason, err)
		}
		if err := requireLocal(caps{paged: true}, reason); err != nil {
			t.Errorf("requireLocal(%s) on a local layout = %v", reason, err)
		}
	}
}

// TestPlanReserveBytes pins the reservation a serving layer makes per plan:
// exact plans reserve the slab of every candidate (the table, or the
// scope) plus exact k-means' per-point state, scaled plans the sample's
// slab plus the candidate index, and a scaled plan whose filter or scope
// can leave fewer candidates than the threshold the larger of that and the
// exact reservation of Threshold-1 rows — and the sample budget default
// comes from ScaleOptions, nowhere else. A materialize adds query.Apply's
// working set on every layout, and on a paged table the resident copy of
// its cells too.
func TestPlanReserveBytes(t *testing.T) {
	const exact = 16*4 + cluster.BytesPerPoint // per candidate, dim 16
	c := caps{rows: 50_000, dim: 16, bins: matrixBins}
	where := []query.Predicate{{Col: "x", Op: query.Leq, Num: 20}}
	wide := make([]int, 45_000)
	for i := range wide {
		wide[i] = i
	}
	for _, tc := range []struct {
		spec  ExploreSpec
		scale ScaleOptions
		want  int64
	}{
		{ExploreSpec{}, ScaleOptions{}, 50_000 * exact},
		{ExploreSpec{}, ScaleOptions{Threshold: 60_000}, 50_000 * exact},
		{ExploreSpec{}, ScaleOptions{Threshold: 1}, 20_000*16*4 + 20_000*8},
		{ExploreSpec{}, ScaleOptions{Threshold: 1, SampleBudget: 400}, 400*16*4 + 400*8},
		{ExploreSpec{}, ScaleOptions{Threshold: 1, SampleBudget: 80_000}, 50_000*16*4 + 50_000*8},
		{ExploreSpec{}, ScaleOptions{Threshold: 40_000, SampleBudget: 400}, 400*16*4 + 400*8},
		{ExploreSpec{Where: where}, ScaleOptions{Threshold: 40_000, SampleBudget: 400}, 39_999 * exact},
		{ExploreSpec{Scope: wide}, ScaleOptions{Threshold: 40_000, SampleBudget: 400}, 39_999 * exact},
		{ExploreSpec{Scope: []int{1, 2, 3}}, ScaleOptions{Threshold: 40_000, SampleBudget: 400}, 3 * exact},
		{ExploreSpec{Scope: []int{1, 2, 3}, Where: where}, ScaleOptions{}, 3 * exact},
		{ExploreSpec{Where: where}, ScaleOptions{Threshold: 1, SampleBudget: 400}, 400*16*4 + 400*8},
		{ExploreSpec{Where: where}, ScaleOptions{Threshold: 100}, 20_000*16*4 + 20_000*8},
	} {
		spec := tc.spec
		spec.K, spec.L, spec.Scale = 5, 2, &tc.scale
		p, err := planSelect(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		if p.reserve != tc.want {
			t.Errorf("rows %s, scale %+v reserves %d bytes, want %d", p.rows, tc.scale, p.reserve, tc.want)
		}
	}

	// matrixBins: x and y numeric, g categorical over a 2-string dictionary.
	const copied = 50_000*(8+8+4+16) + 3*256 + 2*128
	// Apply's working set: a row id and 8 bytes per projected or key column
	// for every row, and each of those arrays' rounding.
	const applyKey, applyProjected = 50_000*(8+8) + 2*8<<10, 50_000*(2*8+8) + 3*8<<10
	groupBy := &query.Query{GroupBy: []string{"g"}, Aggs: []query.Aggregate{{Func: query.Count}}}
	for _, tc := range []struct {
		spec  ExploreSpec
		paged bool
		want  int64
	}{
		{ExploreSpec{Query: groupBy}, false, 50_000*exact + applyKey},
		{ExploreSpec{Query: groupBy}, true, 50_000*exact + applyKey + copied},
		{ExploreSpec{Query: &query.Query{Select: []string{"x", "g"}, OrderBy: "x"}}, true, 50_000*exact + applyProjected + copied},
		{ExploreSpec{Query: &query.Query{Select: []string{"x", "g"}}}, true, 50_000 * exact},
		{ExploreSpec{Where: where}, true, 50_000 * exact},
	} {
		spec := tc.spec
		spec.K, spec.L, spec.Scale = 5, 2, &ScaleOptions{}
		pc := c
		pc.paged = tc.paged
		p, err := planSelect(spec, pc)
		if err != nil {
			t.Fatal(err)
		}
		if p.reserve != tc.want {
			t.Errorf("rows %s, paged %v reserves %d bytes, want %d", p.rows, tc.paged, p.reserve, tc.want)
		}
	}
}

// remoteTwin returns a model over the same table as filterTestModel whose
// codes are split into three shards with the middle one not held locally,
// plus — when withSampler — a sampler that scans a complete sharded twin the
// way a coordinator's peers would.
func remoteTwin(t *testing.T, withSampler bool) *Model {
	t.Helper()
	whole := filterTestModel(t)
	paths, cells := shardPaths(t.TempDir(), 3)
	if err := whole.PageOut(paths, cells, true, 64); err != nil {
		t.Fatal(err)
	}

	partialDir := t.TempDir()
	for _, i := range []int{0, 2} {
		copyFile(t, paths[i], filepath.Join(partialDir, filepath.Base(paths[i])))
	}
	partial, err := shard.Open(partialDir, whole.ShardSource().Map(), whole.T.NumCols(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { partial.Close() })
	m := filterTestModel(t)
	if err := m.B.AttachStore(partial); err != nil {
		t.Fatal(err)
	}
	if m.ShardSource().Complete() {
		t.Fatal("remote twin holds every shard")
	}
	if withSampler {
		m.SetShardSampler(peerSampler{whole})
	}
	return m
}

// peerSampler is the coordinator protocol without the wire: scan every
// shard of a complete twin, merge, overlay the candidates' codes.
type peerSampler struct{ whole *Model }

func (s peerSampler) Sample(cols []int, budget int, preds []query.Predicate) ([]int, binning.CodeSource, int, error) {
	src := s.whole.ShardSource()
	sums := make([]shard.Summary, src.NumShards())
	matched := 0
	for i := range sums {
		sum, n, err := s.whole.SampleShard(i, cols, budget, s.whole.SampleSeed(), preds)
		if err != nil {
			return nil, nil, 0, err
		}
		sums[i], matched = sum, matched+n
	}
	strata, cands := shard.MergeSummaries(sums, s.whole.B.NumItems())
	rows := shard.FinishSample(strata, cands, budget)
	var all []int64
	for _, sum := range sums {
		all = append(all, sum.CandidateRows()...)
	}
	codes := make([][]uint16, s.whole.T.NumCols())
	for c := range codes {
		for _, r := range all {
			codes[c] = append(codes[c], src.Code(c, int(r)))
		}
	}
	overlay, err := shard.NewSparseSource(s.whole.T.NumRows(), len(codes), all, codes)
	return rows, overlay, matched, err
}

// executionSweep builds one small real model per matrix layout, plus a
// sharded one whose shards are all local (it plans as local), and the
// request shapes and scale settings to run on them.
func executionSweep(t *testing.T) (map[string]*Model, map[string]ExploreSpec, map[string]ScaleOptions) {
	paged := filterTestModel(t)
	pageOut(t, paged)
	sharded := filterTestModel(t)
	shardOut(t, sharded)
	layouts := map[string]*Model{
		"resident":          filterTestModel(t),
		"paged":             paged,
		"sharded-local":     sharded,
		"remote+sampler":    remoteTwin(t, true),
		"remote-no-sampler": remoteTwin(t, false),
	}
	m0 := layouts["resident"]
	shapes := map[string]ExploreSpec{
		"plain":                       {},
		"where-exact":                 {Where: []query.Predicate{{Col: "CANCELLATION_REASON", Op: query.IsMissing}}},
		"where-residual":              {Where: []query.Predicate{{Col: "DISTANCE", Op: query.Lt, Num: 1234.5}}},
		"scope":                       {Scope: []int{2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610}},
		"covered":                     {Covered: bitset.FromIndices(m0.B.NumItems(), []int{0, 1, 2})},
		"column-bias":                 {ColBias: m0.ColumnNullRates()},
		"limit":                       {Query: &query.Query{Limit: 150}},
		"projection":                  {Query: &query.Query{Select: []string{"AIRLINE", "DISTANCE", "TAXI_OUT", "ARRIVAL_DELAY"}}},
		"group-by":                    {Query: &query.Query{GroupBy: []string{"AIRLINE", "ORIGIN_AIRPORT", "CANCELLED"}, Aggs: []query.Aggregate{{Func: query.Count}}}},
		"order-by-in-projection":      {Query: &query.Query{Select: []string{"AIRLINE", "DISTANCE", "TAXI_OUT"}, OrderBy: "DISTANCE"}},
		"order-by-outside-projection": {Query: &query.Query{Select: []string{"AIRLINE", "DISTANCE", "TAXI_OUT"}, OrderBy: "ARRIVAL_DELAY"}},
	}
	scales := map[string]ScaleOptions{
		"off":               {},
		"active":            {Threshold: 1, SampleBudget: 200, BatchSize: 64, MaxIter: 20},
		"threshold>matched": {Threshold: 700, SampleBudget: 200, BatchSize: 64, MaxIter: 20},
	}
	return layouts, shapes, scales
}

// TestPlanMatchesExecution runs every matrix shape on a real model of each
// layout: where the planner refuses, the executor must return that refusal;
// where it plans, the select must succeed with exactly k×l (every fixture
// has at least k candidates and l columns).
func TestPlanMatchesExecution(t *testing.T) {
	layouts, shapes, scales := executionSweep(t)
	const k, l = 4, 3
	for layout, m := range layouts {
		for shape, spec := range shapes {
			for scName, sc := range scales {
				spec.K, spec.L, spec.Scale = k, l, &sc
				name := layout + " / " + shape + " / " + scName
				_, planErr := m.plan(spec)
				st, err := m.SelectExplore(spec)
				var planned, got *Refusal
				switch {
				case errors.As(planErr, &planned):
					if !errors.As(err, &got) || got.Reason != planned.Reason {
						t.Errorf("%s: planner refuses with %s, executor returned %v", name, planned.Reason, err)
					}
				case errors.As(err, &got) && got.Reason == ReasonUnderThreshold:
					// The one refusal that waits for the candidate count: a
					// pushdown whose matches fall under the threshold.
					if !m.caps().remote || len(spec.Where) == 0 || scName != "threshold>matched" {
						t.Errorf("%s: unexpected %v", name, err)
					}
				case err != nil:
					t.Errorf("%s: planned but failed: %v", name, err)
				case len(st.SourceRows) != k || len(st.ColIdx) != l || st.View.NumRows() != k || st.View.NumCols() != l:
					t.Errorf("%s: got %dx%d (view %dx%d), want %dx%d", name, len(st.SourceRows), len(st.ColIdx), st.View.NumRows(), st.View.NumCols(), k, l)
				}
			}
		}
	}
}

// TestMaterializeMatchesResident runs the shapes that need query.Apply — a
// group-by, an order-by on a projected column — on the execution sweep's
// paged and sharded-local models at every scale setting: each select
// equals the resident model's byte for byte (source rows, columns and
// rendered cells).
func TestMaterializeMatchesResident(t *testing.T) {
	layouts, shapes, scales := executionSweep(t)
	for _, shape := range []string{"group-by", "order-by-in-projection"} {
		for scName, sc := range scales {
			spec := shapes[shape]
			spec.K, spec.L, spec.Scale = 4, 3, &sc
			want := fpr(mustSelect(t, layouts["resident"], spec))
			for _, layout := range []string{"paged", "sharded-local"} {
				if got := fpr(mustSelect(t, layouts[layout], spec)); got != want {
					t.Errorf("%s / %s / %s:\n got %s\nwant %s", layout, shape, scName, got, want)
				}
			}
		}
	}
}

// TestPagedCopyWithinReserve pins the reservation of a materialize: with
// the collector off, so TotalAlloc counts every byte, what the row stage
// allocates — query.Apply, and on a paged table first the resident copy
// Apply runs over — stays within what the plan reserves for it, the
// spec's ReserveBytes beyond that of the same spec without its query. It
// holds on a resident model, on one mapped from its stores, and on a
// sharded one.
func TestPagedCopyWithinReserve(t *testing.T) {
	resident, paged, sharded := filterTestModel(t), filterTestModel(t), filterTestModel(t)
	pageOut(t, paged)
	shardOut(t, sharded)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, q := range []*query.Query{
		{GroupBy: []string{"AIRLINE", "CANCELLED"}, Aggs: []query.Aggregate{{Func: query.Count}}},
		{Select: []string{"AIRLINE", "DISTANCE", "TAXI_OUT"}, OrderBy: "DISTANCE"},
	} {
		spec := ExploreSpec{Query: q, K: 4, L: 3, Scale: &ScaleOptions{Threshold: 1, SampleBudget: 64}}
		plain := spec
		plain.Query = nil
		for name, m := range map[string]*Model{"resident": resident, "paged": paged, "sharded": sharded} {
			reserve, err := m.ReserveBytes(spec)
			if err != nil {
				t.Fatal(err)
			}
			base, err := m.ReserveBytes(plain)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			var rows []int
			runtime.ReadMemStats(&before)
			copied, err := m.residentTable()
			if err == nil {
				_, rows, err = q.Apply(copied)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if (copied == m.T) != (name == "resident") || copied.NumRows() != m.T.NumRows() || len(rows) == 0 {
				t.Fatalf("%s: Apply matched %d of %d rows, over the model's own table %v", name, len(rows), copied.NumRows(), copied == m.T)
			}
			if got, share := after.TotalAlloc-before.TotalAlloc, reserve-base; share <= 0 || got > uint64(share) {
				t.Errorf("%s %s: the row stage allocated %d bytes, the reservation holds %d for it", name, q, got, share)
			}
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
