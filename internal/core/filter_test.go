// Property sweep for the streaming predicate path: for any streamable
// query (conjunction + projection + limit), the planner's code-level
// streaming row sources must be byte-identical to the materialize row
// source (query.Apply, then select) — over resident, paged and sharded stores,
// exact and scaled — and the exploration operators (coverage-biased
// sampling, drill-down scopes) must be deterministic.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/query"
	"subtab/internal/word2vec"
)

// filterTestModel builds an independent deterministic FL model; each call
// re-preprocesses so twins never alias inline state.
func filterTestModel(t *testing.T) *Model {
	t.Helper()
	ds, err := datagen.ByName("FL", 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 5},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 5},
		Embedding:   word2vec.Options{Dim: 16, Epochs: 2, Seed: 5},
		ClusterSeed: 11,
	}
	m, err := Preprocess(ds.T, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pageOut switches a model onto small-block code and column stores and
// drops the inline copies, so streaming really streams.
func pageOut(t *testing.T, m *Model) {
	t.Helper()
	dir := t.TempDir()
	cs, err := m.UseCodeStoreFile(filepath.Join(dir, "codes"), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	st, err := m.UseColumnStoreFile(filepath.Join(dir, "cols"), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if !m.OutOfCore() || !m.CellsPaged() {
		t.Fatal("model still resident after paging out")
	}
}

// shardOut is pageOut's sharded form: codes and cells split across three
// shard files each.
func shardOut(t *testing.T, m *Model) {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, 3)
	colPaths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("codes.%d", i))
		colPaths[i] = filepath.Join(dir, fmt.Sprintf("cols.%d", i))
	}
	src, err := m.UseShardedStores(paths, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	cells, err := m.UseShardedColumnStores(colPaths, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cells.Close() })
}

func fpr(st *SubTable) string {
	return fmt.Sprintf("%v|%v|%v|%s", st.SourceRows, st.ColIdx, st.Cols, st.View.Render(nil))
}

// streamableCorpus enumerates the queries the sweep pins: cut-crossing and
// arbitrary numeric bounds, categorical equality (incl. the fallback bin),
// missingness, projections, limits, and an order-by outside the projection
// (a no-op in Apply, so still streamable).
func streamableCorpus(m *Model) []*query.Query {
	carrier := m.T.ColumnAt(m.T.ColumnIndex("AIRLINE")).CellString(0)
	return []*query.Query{
		{Where: []query.Predicate{{Col: "DISTANCE", Op: query.Geq, Num: 800}}},
		{Where: []query.Predicate{{Col: "DISTANCE", Op: query.Lt, Num: 1234.5}}},
		{Where: []query.Predicate{{Col: "AIRLINE", Op: query.Eq, Str: carrier}}},
		{Where: []query.Predicate{{Col: "AIRLINE", Op: query.Neq, Str: carrier}, {Col: "ARRIVAL_DELAY", Op: query.Gt, Num: 0}}},
		{Where: []query.Predicate{{Col: "CANCELLATION_REASON", Op: query.IsMissing}}},
		{Where: []query.Predicate{{Col: "ARRIVAL_DELAY", Op: query.NotMissing}, {Col: "DEPARTURE_DELAY", Op: query.Leq, Num: 30}}},
		{
			Where:  []query.Predicate{{Col: "DISTANCE", Op: query.Gt, Num: 400}},
			Select: []string{"AIRLINE", "DISTANCE", "ARRIVAL_DELAY", "ORIGIN_AIRPORT"},
		},
		{
			Where: []query.Predicate{{Col: "DEPARTURE_DELAY", Op: query.Geq, Num: 10}},
			Limit: 150,
		},
		{
			Where:   []query.Predicate{{Col: "DISTANCE", Op: query.Leq, Num: 2000}},
			Select:  []string{"AIRLINE", "DISTANCE", "TAXI_OUT"},
			OrderBy: "ARRIVAL_DELAY", // outside the projection: no-op, streamable
			Limit:   200,
		},
	}
}

// TestStreamingMatchesMaterialized pins the headline byte-identity: on a
// resident table, the streaming path and the historical Apply-based path
// produce identical selections, exact and scaled.
func TestStreamingMatchesMaterialized(t *testing.T) {
	m := filterTestModel(t)
	scales := map[string]ScaleOptions{
		"exact":  {},
		"scaled": {Threshold: 1, SampleBudget: 300, BatchSize: 128, MaxIter: 50},
	}
	for i, q := range streamableCorpus(m) {
		for name, sc := range scales {
			spec := ExploreSpec{Query: q, K: 8, L: 6, Scale: &sc}
			p, err := m.plan(spec)
			if err != nil {
				t.Fatalf("query %d (%s) %s plan: %v", i, q, name, err)
			}
			if p.rows == rowsMaterialize {
				t.Fatalf("query %d (%s) unexpectedly not streamable", i, q)
			}
			// The reference: the same plan with its row source swapped for
			// materialize-then-filter, the path group-by queries run.
			p.rows = rowsMaterialize
			want, err := m.execute(p, spec)
			if err != nil {
				t.Fatalf("query %d (%s) %s materialized: %v", i, q, name, err)
			}
			got, err := m.SelectExplore(spec)
			if err != nil {
				t.Fatalf("query %d (%s) %s streaming: %v", i, q, name, err)
			}
			if fpr(got) != fpr(want) {
				t.Fatalf("query %d (%s) %s diverged:\n got %s\nwant %s", i, q, name, fpr(got), fpr(want))
			}
		}
	}
}

// TestStreamingAcrossStores pins cross-store identity: paged and sharded
// twins must reproduce the resident model's selections byte for byte —
// streaming filters (residual predicate checks included: the bounds are
// deliberately not cut-aligned) and the session shapes, where "every row"
// and "this scope" are plan facts rather than scanned row lists.
func TestStreamingAcrossStores(t *testing.T) {
	resident := filterTestModel(t)
	paged := filterTestModel(t)
	pageOut(t, paged)
	sharded := filterTestModel(t)
	shardOut(t, sharded)
	twins := map[string]*Model{"paged": paged, "sharded": sharded}
	sc := &ScaleOptions{Threshold: 1, SampleBudget: 300, BatchSize: 128, MaxIter: 50}

	specs := map[string]ExploreSpec{}
	for i, q := range streamableCorpus(resident) {
		specs[fmt.Sprintf("query %d (%s)", i, q)] = ExploreSpec{Query: q, Scale: sc}
	}
	first, err := resident.SelectExplore(ExploreSpec{K: 8, L: 6, Scale: sc})
	if err != nil {
		t.Fatal(err)
	}
	scope, err := resident.Neighborhood(first.SourceRows[1], first.ColIdx[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	where := []query.Predicate{{Col: "DISTANCE", Op: query.Lt, Num: 1234.5}}
	covered := bitset.FromIndices(resident.B.NumItems(), resident.ViewItems(first))
	bias := resident.ColumnNullRates()
	for c := range bias {
		bias[c] = 1 / (1 + 2*bias[c] + float64(c%3))
	}
	specs["scope"] = ExploreSpec{Scope: scope, Scale: sc}
	specs["scope exact"] = ExploreSpec{Scope: scope, Scale: &ScaleOptions{}}
	specs["where∩scope"] = ExploreSpec{Where: where, Scope: scope, Scale: sc}
	specs["covered"] = ExploreSpec{Covered: covered, Scale: sc}
	specs["covered where"] = ExploreSpec{Where: where, Covered: covered, Scale: sc}
	specs["col-bias"] = ExploreSpec{ColBias: bias, Scale: sc}
	specs["session"] = ExploreSpec{Scope: scope, Covered: covered, ColBias: bias, Scale: sc}

	for name, spec := range specs {
		spec.K, spec.L = 8, 6
		want, err := resident.SelectExplore(spec)
		if err != nil {
			t.Fatalf("%s resident: %v", name, err)
		}
		for store, twin := range twins {
			got, err := twin.SelectExplore(spec)
			if err != nil {
				t.Fatalf("%s %s: %v", name, store, err)
			}
			if fpr(got) != fpr(want) {
				t.Fatalf("%s over %s store diverged:\n got %s\nwant %s", name, store, fpr(got), fpr(want))
			}
		}
	}

	// The plain spec is Select: rows=all reaches the same bytes whether it
	// is spelled as the paper's signature, an empty spec, an empty
	// conjunction or an empty query, exact and scaled, on every layout.
	twins["resident"] = resident
	for store, m := range twins {
		want, err := m.Select(8, 6, nil)
		if err != nil {
			t.Fatalf("%s Select: %v", store, err)
		}
		for name, spec := range map[string]ExploreSpec{
			"empty spec":  {},
			"empty where": {Where: []query.Predicate{}},
			"empty query": {Query: &query.Query{}},
		} {
			spec.K, spec.L = 8, 6
			got, err := m.SelectExplore(spec)
			if err != nil {
				t.Fatalf("%s %s: %v", store, name, err)
			}
			if fpr(got) != fpr(want) {
				t.Fatalf("%s %s diverged from Select:\n got %s\nwant %s", store, name, fpr(got), fpr(want))
			}
		}
		if fpr(want) != fpr(mustSelect(t, resident, ExploreSpec{K: 8, L: 6})) {
			t.Fatalf("%s Select diverged from the resident model's", store)
		}
		scaled := mustSelect(t, m, ExploreSpec{K: 8, L: 6, Scale: sc})
		if fpr(scaled) != fpr(first) {
			t.Fatalf("%s scaled plain select diverged:\n got %s\nwant %s", store, fpr(scaled), fpr(first))
		}
	}
}

func mustSelect(t *testing.T, m *Model, spec ExploreSpec) *SubTable {
	t.Helper()
	st, err := m.SelectExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPagedNonStreamableRefused pins satellite behaviour: a query needing
// Apply's resident-cell evaluation on a paged table is refused with the
// typed paged-cells error and a message pointing at the streaming subset —
// never answered by materializing the table.
func TestPagedNonStreamableRefused(t *testing.T) {
	m := filterTestModel(t)
	pageOut(t, m)
	for _, q := range []*query.Query{
		{GroupBy: []string{"AIRLINE"}, Aggs: []query.Aggregate{{Func: query.Count}}},
		{Select: []string{"AIRLINE", "DISTANCE"}, OrderBy: "DISTANCE", Limit: 20},
	} {
		_, err := m.SelectExplore(ExploreSpec{Query: q, K: 5, L: 5})
		if err == nil {
			t.Fatalf("query %s on paged table did not error", q)
		}
		if !errors.Is(err, query.ErrCellsPaged) {
			t.Fatalf("query %s: error %v does not wrap query.ErrCellsPaged", q, err)
		}
		if !strings.Contains(err.Error(), "enable streaming predicates") {
			t.Fatalf("query %s: error %q does not point at the streaming subset", q, err)
		}
	}
}

// TestHuskEvaluationRefused pins the query-layer guard: cell-level
// predicate evaluation against a dropped-cells husk returns the typed
// ErrCellsPaged instead of matching against stale or absent cells.
func TestHuskEvaluationRefused(t *testing.T) {
	m := filterTestModel(t)
	pageOut(t, m)
	if m.T.CellsResident() {
		t.Fatal("table cells still resident after paging out")
	}
	q := &query.Query{Where: []query.Predicate{{Col: "DISTANCE", Op: query.Gt, Num: 100}}}
	if _, err := q.MatchingRows(m.T); !errors.Is(err, query.ErrCellsPaged) {
		t.Fatalf("MatchingRows on husk: error %v does not wrap query.ErrCellsPaged", err)
	}
	if _, _, err := q.Apply(m.T); !errors.Is(err, query.ErrCellsPaged) {
		t.Fatalf("Apply on husk: error %v does not wrap query.ErrCellsPaged", err)
	}
}

// TestExploreDeterminism pins the session operators: an empty coverage
// bitset reproduces the unbiased selection exactly, repeated biased
// selections are identical, and coverage bias genuinely changes the
// sample once strata are covered.
func TestExploreDeterminism(t *testing.T) {
	m := filterTestModel(t)
	sc := &ScaleOptions{Threshold: 1, SampleBudget: 120, BatchSize: 128, MaxIter: 50}
	spec := ExploreSpec{
		Where: []query.Predicate{{Col: "DISTANCE", Op: query.Geq, Num: 300}},
		K:     8, L: 6,
		Scale: sc,
	}
	base, err := m.SelectExplore(spec)
	if err != nil {
		t.Fatal(err)
	}
	empty := spec
	empty.Covered = bitset.New(m.B.NumItems())
	unbiased, err := m.SelectExplore(empty)
	if err != nil {
		t.Fatal(err)
	}
	if fpr(unbiased) != fpr(base) {
		t.Fatalf("empty coverage diverged from unbiased:\n got %s\nwant %s", fpr(unbiased), fpr(base))
	}
	covered := bitset.FromIndices(m.B.NumItems(), m.ViewItems(base))
	biasedSpec := spec
	biasedSpec.Covered = covered
	a, err := m.SelectExplore(biasedSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.SelectExplore(biasedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if fpr(a) != fpr(b) {
		t.Fatalf("biased selection not deterministic:\n %s\n %s", fpr(a), fpr(b))
	}
}

// TestDrillDownDeterministic replays a whole session — select, cell drill,
// row drill — on two independently preprocessed models: every step must
// produce identical views and scopes.
func TestDrillDownDeterministic(t *testing.T) {
	run := func(m *Model) []string {
		var trace []string
		sc := &ScaleOptions{Threshold: 1, SampleBudget: 120, BatchSize: 128, MaxIter: 50}
		st, err := m.SelectExplore(ExploreSpec{K: 8, L: 6, Scale: sc})
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, fpr(st))
		covered := bitset.FromIndices(m.B.NumItems(), m.ViewItems(st))
		anchor := st.SourceRows[2]
		// Cell drill on the view's first column.
		scope, err := m.Neighborhood(anchor, st.ColIdx[0], st.ColIdx)
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, fmt.Sprintf("%v", scope))
		st2, err := m.SelectExplore(ExploreSpec{Scope: scope, K: 6, L: 5, Scale: sc, Covered: covered})
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, fpr(st2))
		// Row drill from the second view.
		scope2, err := m.Neighborhood(st2.SourceRows[0], -1, st2.ColIdx)
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, fmt.Sprintf("%v", scope2))
		return trace
	}
	a, b := run(filterTestModel(t)), run(filterTestModel(t))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session step %d diverged:\n %s\n %s", i, a[i], b[i])
		}
	}
}
