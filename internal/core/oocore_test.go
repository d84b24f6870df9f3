// Tests for the out-of-core selection path: a store-backed model (bin
// codes in an mmap'd code store, inline codes dropped) must reproduce the
// in-memory model's selections byte for byte — scaled, exact, query-
// restricted, with and without slab spilling — and the operations that
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

// outOfCoreTwin builds a second, independent deterministic model and
// switches it onto a code store (small blocks, so chunked scans really
// chunk), leaving the original fully in-memory for comparison.
func outOfCoreTwin(t *testing.T) *core.Model {
	t.Helper()
	m := deterministicModel(t)
	cs, err := m.UseCodeStoreFile(filepath.Join(t.TempDir(), "twin.codes"), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	if !m.OutOfCore() {
		t.Fatal("model still in-core after UseCodeStoreFile")
	}
	return m
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

// TestOutOfCoreSpilledSlabMatches pins the slab spill: a budget far below
// the sampled vectors' size forces the spill file, and the selection must
// not change by a byte.
func TestOutOfCoreSpilledSlabMatches(t *testing.T) {
	mem := deterministicModel(t)
	ooc := outOfCoreTwin(t)
	plain := forceScale()
	want, err := mem.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: plain})
	if err != nil {
		t.Fatal(err)
	}
	spill := forceScale()
	spill.SlabBudgetBytes = 1 // 300 sampled rows x 16 dims x 4B >> 1B
	got, err := ooc.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: spill})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("spilled-slab select diverged:\n got %s\nwant %s", fingerprint(got), fingerprint(want))
	}
	// The in-memory model must spill identically too.
	memSpill, err := mem.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: spill})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(memSpill) != fingerprint(want) {
		t.Fatalf("in-memory spilled select diverged:\n got %s\nwant %s", fingerprint(memSpill), fingerprint(want))
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
		t.Fatal("append result should own inline codes")
	}
	if _, err := next.SelectExplore(core.ExploreSpec{K: 6, L: 5, Scale: forceScale()}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfCoreModelRoundTrip pins modelio v5 external references: a
// store-backed model saved next to its code store loads back out-of-core
// and selects identically; a model file without its store, or with a
// mismatched store, fails loudly.
func TestOutOfCoreModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := deterministicModel(t)
	cs, err := m.UseCodeStoreFile(filepath.Join(dir, "model.codes"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	want, err := m.SelectExplore(core.ExploreSpec{K: 8, L: 7, Scale: forceScale()})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.subtab")
	if err := modelio.SaveFile(modelPath, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := modelio.LoadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
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

	// Loading without the store directory must fail with guidance, not
	// guess.
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("Load from a bare reader resolved an external store reference")
	}

	// A regenerated (different-seed) store under the referenced name must
	// be rejected by the checksum.
	other := deterministicModel(t)
	if err := other.ExportCodeStore(filepath.Join(dir, "model.codes"), 128); err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.LoadFile(modelPath); err == nil {
		t.Fatal("LoadFile accepted a code store with a different checksum")
	}
}
