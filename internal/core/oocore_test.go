// Tests for the out-of-core selection path: a paged model (bin codes in an
// mmap'd code store, cells in a column store) must reproduce the
// in-memory model's selections byte for byte — scaled, exact, query-
// restricted — and the operations that
// need materialized codes (rule mining, appends, persistence) must keep
// working.
package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"subtab/internal/core"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/rules"
)

// outOfCoreTwin builds a second, independent deterministic model and pages
// it out (small blocks, so chunked scans really chunk), leaving the
// original fully in-memory for comparison.
func outOfCoreTwin(t *testing.T) *core.Model {
	t.Helper()
	m := deterministicModel(t)
	pageOutTo(t, m, t.TempDir(), 64)
	return m
}

// pageOutTo pages m out to a code store and a column store in dir.
func pageOutTo(t *testing.T, m *core.Model, dir string, blockRows int) {
	t.Helper()
	if err := m.PageOut([]string{filepath.Join(dir, "model.codes")}, []string{filepath.Join(dir, "model.cols")}, false, blockRows); err != nil {
		t.Fatal(err)
	}
	if !m.OutOfCore() {
		t.Fatal("model still in-core after paging out")
	}
}

// TestOutOfCoreScaledSelectMatchesInMemory pins the headline guarantee:
// the scaled path over the code store is bit-identical to the in-memory
// scaled path.
func TestOutOfCoreScaledSelectMatchesInMemory(t *testing.T) {
	mem := deterministicModel(t)
	ooc := outOfCoreTwin(t)
	want, err := mem.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ooc.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("store-backed scaled select diverged:\n got %s\nwant %s", fingerprint(got), fingerprint(want))
	}
}

// TestOutOfCoreQueryAndExactSelects drives the store-backed model down the
// non-scaled exact path and the query-restricted scaled path.
func TestOutOfCoreQueryAndExactSelects(t *testing.T) {
	mem := deterministicModel(t)
	ooc := outOfCoreTwin(t)

	wantExact, err := mem.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotExact, err := ooc.Select(8, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(gotExact) != fingerprint(wantExact) {
		t.Fatalf("store-backed exact select diverged:\n got %s\nwant %s", fingerprint(gotExact), fingerprint(wantExact))
	}

	q := &query.Query{Limit: 500}
	wantQ, err := mem.SelectExplore(core.ExploreSpec{Query: q, K: 6, L: 5, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := ooc.SelectExplore(core.ExploreSpec{Query: q, K: 6, L: 5, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(gotQ) != fingerprint(wantQ) {
		t.Fatalf("store-backed query select diverged:\n got %s\nwant %s", fingerprint(gotQ), fingerprint(wantQ))
	}
}

// TestOutOfCoreRulesAndAppend pins the materialization escape hatches:
// mining rules over a store-backed model matches the in-memory mining, and
// an append produces a working (inline) successor model.
func TestOutOfCoreRulesAndAppend(t *testing.T) {
	mem := deterministicModel(t)
	ooc := outOfCoreTwin(t)
	opt := rules.Options{MinSupport: 0.05, MinConfidence: 0.6}
	want, err := rules.Mine(mem.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rules.Mine(ooc.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("store-backed mining found %d rules, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Label(mem.B) != got[i].Label(ooc.B) {
			t.Fatalf("rule %d differs: %q vs %q", i, got[i].Label(ooc.B), want[i].Label(mem.B))
		}
	}

	delta := deterministicModel(t).T // same distribution, schema-compatible
	sub, err := delta.SubTableView([]int{0, 1, 2, 3, 4}, delta.ColumnNames())
	if err != nil {
		t.Fatal(err)
	}
	next, stats, err := ooc.Append(sub, core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if next.T.NumRows() != ooc.T.NumRows()+5 {
		t.Fatalf("append produced %d rows, want %d", next.T.NumRows(), ooc.T.NumRows()+5)
	}
	if stats.Rebinned {
		t.Fatalf("5-row append rebinned: %s", stats.RebinReason)
	}
	if next.OutOfCore() {
		t.Fatal("append result should own resident codes")
	}
	if _, err := next.SelectExplore(core.ExploreSpec{K: 6, L: 5, Scale: forceScale()}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfCoreModelRoundTrip pins the paged model file: a store-backed
// model saves as one file that carries a copy of its code store, loads back
// out-of-core (from a path or a bare reader) and selects identically, and
// owes nothing to the store file it was paged out to.
func TestOutOfCoreModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := deterministicModel(t)
	pageOutTo(t, m, dir, 64)
	want, err := m.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.subtab")
	if err := modelio.SaveFile(modelPath, m); err != nil {
		t.Fatal(err)
	}
	// A regenerated (different-seed) store under the name the model was
	// paged out to changes nothing: the model file holds its own copy.
	other := deterministicModel(t)
	if err := other.ExportCodeStore(filepath.Join(dir, "model.codes"), 128); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	fromPath, err := modelio.LoadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := modelio.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []*core.Model{fromPath, fromReader} {
		if !loaded.OutOfCore() {
			t.Fatal("loaded model is not store-backed")
		}
		got, err := loaded.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("loaded out-of-core model selects differently:\n got %s\nwant %s", fingerprint(got), fingerprint(want))
		}
	}
}
