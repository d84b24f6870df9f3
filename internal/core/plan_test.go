// The capability matrix as one table. TestPlanMatrix runs planSelect alone —
// no model is built — over every store layout × request shape × scale
// setting and pins, per cell, the stage list with the variant each stage
// runs, or the reason the layout refuses the shape. TestPlanMatchesExecution
// then builds one small real model per layout and checks that what the
// executor does agrees with what the planner said.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/bitset"
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
	{"resident", caps{cellsResident: true, inlineCodes: true}},
	{"codes-out-of-core", caps{cellsResident: true}},
	{"cells-paged", caps{columnStore: true}},
	{"sharded-local", caps{columnStore: true}},
	{"remote+sampler", caps{columnStore: true, remote: true, sampler: true}},
	{"remote-no-sampler", caps{columnStore: true, remote: true}},
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
		case StageResidualGather:
			v = string(p.residual)
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
		case StageColumnChoice:
			v = string(p.columns)
		case StageRenderGather:
			v = string(p.render)
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
	c := caps{rows: matrixRows, dim: 16, bins: matrixBins, cellsResident: true, inlineCodes: true}
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
	} {
		tc.spec.Scale = &ScaleOptions{}
		if got := outcome(tc.spec, c, 1); got != "REFUSED "+string(tc.want) {
			t.Errorf("spec %+v: got %s, want refusal %s", tc.spec, got, tc.want)
		}
	}

	// A husk with no cell source at all still plans exact filters and
	// refuses only the residual one.
	husk := caps{rows: matrixRows, dim: 16, bins: matrixBins}
	for i, want := range []string{"rows(filter)", "REFUSED " + string(ReasonNoCells)} {
		spec := matrixShapes[1+i].spec
		spec.K, spec.L, spec.Scale = 5, 2, &ScaleOptions{}
		if got := outcome(spec, husk, 100); !strings.HasPrefix(got, want) {
			t.Errorf("husk %s: got %s, want %s…", matrixShapes[1+i].name, got, want)
		}
	}

	// The paged-table refusal keeps its typed cause and its pointer at the
	// streaming subset.
	spec := matrixShapes[8].spec
	spec.K, spec.L, spec.Scale = 5, 2, &ScaleOptions{}
	_, err := planSelect(spec, caps{rows: matrixRows, dim: 16, bins: matrixBins, columnStore: true})
	if !errors.Is(err, query.ErrCellsPaged) || !strings.Contains(err.Error(), "enable streaming predicates") {
		t.Errorf("group-by on a paged table: %v", err)
	}

	// Whole-table operations outside selection: one reason each.
	for _, reason := range []Reason{ReasonRemoteSession, ReasonRemoteDrill, ReasonRemoteAppend, ReasonRemoteRules} {
		var r *Refusal
		if err := requireLocal(caps{remote: true}, reason); !errors.As(err, &r) || r.Reason != reason {
			t.Errorf("requireLocal(%s) on a remote layout = %v", reason, err)
		}
		if err := requireLocal(caps{}, reason); err != nil {
			t.Errorf("requireLocal(%s) on a local layout = %v", reason, err)
		}
	}
}

// TestPlanReserveBytes pins the reservation a serving layer makes per plan:
// exact plans reserve the full-table slab, scaled plans the sample's slab
// (capped by the spill budget) plus the candidate index — and the sample
// budget default comes from ScaleOptions, nowhere else.
func TestPlanReserveBytes(t *testing.T) {
	c := caps{rows: 50_000, dim: 16, bins: matrixBins, cellsResident: true, inlineCodes: true}
	for _, tc := range []struct {
		scale ScaleOptions
		want  int64
	}{
		{ScaleOptions{}, 50_000 * 16 * 4},
		{ScaleOptions{Threshold: 60_000}, 50_000 * 16 * 4},
		{ScaleOptions{Threshold: 1}, 20_000*16*4 + 20_000*8},
		{ScaleOptions{Threshold: 1, SampleBudget: 400}, 400*16*4 + 400*8},
		{ScaleOptions{Threshold: 1, SampleBudget: 80_000}, 50_000*16*4 + 50_000*8},
		{ScaleOptions{Threshold: 1, SlabBudgetBytes: 1 << 10}, 1<<10 + 20_000*8},
	} {
		p, err := planSelect(ExploreSpec{K: 5, L: 2, Scale: &tc.scale}, c)
		if err != nil {
			t.Fatal(err)
		}
		if p.reserve != tc.want {
			t.Errorf("scale %+v reserves %d bytes, want %d", tc.scale, p.reserve, tc.want)
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
	dir := t.TempDir()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("codes.%d", i))
	}
	src, err := whole.UseShardedStores(paths, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })

	partialDir := t.TempDir()
	for _, i := range []int{0, 2} {
		copyFile(t, paths[i], filepath.Join(partialDir, filepath.Base(paths[i])))
	}
	partial, err := shard.Open(partialDir, src.Map(), whole.T.NumCols(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { partial.Close() })
	m := filterTestModel(t)
	if err := m.AttachCodeStore(partial); err != nil {
		t.Fatal(err)
	}
	if err := m.DropInlineCodes(); err != nil {
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

// TestPlanMatchesExecution runs every matrix shape on a real model of each
// layout: where the planner refuses, the executor must return that refusal;
// where it plans, the select must succeed with exactly k×l (every fixture
// has at least k candidates and l columns).
func TestPlanMatchesExecution(t *testing.T) {
	codesOut := filterTestModel(t)
	cs, err := codesOut.UseCodeStoreFile(filepath.Join(t.TempDir(), "codes"), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	paged := filterTestModel(t)
	pageOut(t, paged)
	sharded := filterTestModel(t)
	shardOut(t, sharded)
	layouts := map[string]*Model{
		"resident":          filterTestModel(t),
		"codes-out-of-core": codesOut,
		"cells-paged":       paged,
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
