// Serving-layer tests for out-of-core tables: the store=1 upload knob,
// the on-disk model + code store pairing, disk reloads that come back
// store-backed, selection equivalence against an in-memory twin, and the
// per-request slab budget.
package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"subtab/internal/core"
)

func TestAddTableOutOfCoreServesIdentically(t *testing.T) {
	dir := t.TempDir()
	svcOOC := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	svcMem := NewService(NewStore(StoreOptions{}), testOptions())
	tbl := testTable("t", 2500, 7)
	mOOC, err := svcOOC.AddTableOutOfCore("t", tbl, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !mOOC.OutOfCore() {
		t.Fatal("AddTableOutOfCore served an in-core model")
	}
	if _, err := svcMem.AddTable("t", testTable("t", 2500, 7), nil, false); err != nil {
		t.Fatal(err)
	}

	// The model file and the code store sit side by side in the cache dir.
	csPath, err := svcOOC.Store().CodeStorePath("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csPath); err != nil {
		t.Fatalf("code store file missing: %v", err)
	}

	for _, scale := range []*core.ScaleOptions{nil, scaleForce()} {
		want, err := svcMem.Select("t", core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svcOOC.Select("t", core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if subTableFingerprint(got) != subTableFingerprint(want) {
			t.Fatalf("out-of-core serve diverged (scale=%v):\n got %s\nwant %s",
				scale, subTableFingerprint(got), subTableFingerprint(want))
		}
	}

	// A fresh service over the same cache dir reloads the model from disk
	// (modelio v5 external reference) and must serve the same selections,
	// still out-of-core.
	svcReload := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m, err := svcReload.Model("t")
	if err != nil {
		t.Fatal(err)
	}
	if !m.OutOfCore() {
		t.Fatal("disk reload lost the code store backing")
	}
	want, err := svcMem.Select("t", core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svcReload.Select("t", core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	if subTableFingerprint(got) != subTableFingerprint(want) {
		t.Fatal("reloaded out-of-core model serves different selections")
	}

	// Rules and highlight still work (they materialize a private copy).
	if _, _, err := svcOOC.Rules("t", rulesOptionsForTest()); err != nil {
		t.Fatal(err)
	}

	// RemoveTable drops both files.
	svcOOC.RemoveTable("t")
	if _, err := os.Stat(csPath); !os.IsNotExist(err) {
		t.Fatalf("code store file survived RemoveTable: %v", err)
	}
}

// TestAppendKeepsTableOutOfCore pins that appending to a store-backed
// table re-exports the successor's codes instead of silently regressing
// the table to a resident code matrix: the served model stays out-of-core,
// the store file reflects the new row count, and the whole thing survives
// a disk reload.
func TestAppendKeepsTableOutOfCore(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTableOutOfCore("t", testTable("t", 1200, 7), nil, false); err != nil {
		t.Fatal(err)
	}
	delta := testTable("t", 12, 8)
	next, stats, err := svc.AppendRows("t", delta, core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AppendedRows != 12 {
		t.Fatalf("appended %d rows, want 12", stats.AppendedRows)
	}
	if !next.OutOfCore() {
		t.Fatal("append regressed the table to inline codes")
	}
	if _, err := next.SelectExplore(core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()}); err != nil {
		t.Fatal(err)
	}
	// A fresh service over the cache dir sees the appended, still
	// out-of-core model.
	svc2 := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m, err := svc2.Model("t")
	if err != nil {
		t.Fatal(err)
	}
	if m.T.NumRows() != 1212 || !m.OutOfCore() {
		t.Fatalf("reload: %d rows, out_of_core=%v; want 1212, true", m.T.NumRows(), m.OutOfCore())
	}
}

// TestAddTableOutOfCoreNeedsDisk pins the memory-only rejection.
func TestAddTableOutOfCoreNeedsDisk(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTableOutOfCore("t", testTable("t", 200, 1), nil, false); err == nil {
		t.Fatal("AddTableOutOfCore succeeded without a disk-backed store")
	}
}

// TestHTTPOutOfCoreUpload drives the store=1 knob and the slab-budget
// request field end to end.
func TestHTTPOutOfCoreUpload(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	csv := testCSV(600)

	resp, err := http.Post(srv.URL+"/tables?name=ooc&store=1&seed=4&workers=1", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	created := decodeBodyMap(t, resp, http.StatusCreated)
	if created["out_of_core"] != true {
		t.Fatalf("upload response = %v, want out_of_core=true", created)
	}

	var info TableInfo
	doJSON(t, "GET", srv.URL+"/tables/ooc", nil, http.StatusOK, &info)
	if !info.OutOfCore {
		t.Fatalf("info = %+v, want OutOfCore", info)
	}

	// Scaled select with a 1-byte slab budget: spills, still answers.
	var sel struct {
		SourceRows []int `json:"source_rows"`
	}
	body := map[string]any{
		"k": 5, "l": 3,
		"scale": map[string]any{"threshold": 1, "sample_budget": 300, "batch_size": 64, "max_iter": 20, "slab_budget": 1},
	}
	doJSON(t, "POST", srv.URL+"/tables/ooc/select", body, http.StatusOK, &sel)
	if len(sel.SourceRows) != 5 {
		t.Fatalf("select returned %d rows, want 5", len(sel.SourceRows))
	}

	// Negative slab budget is the caller's bug.
	bad := map[string]any{"k": 5, "l": 3, "scale": map[string]any{"slab_budget": -1}}
	doJSON(t, "POST", srv.URL+"/tables/ooc/select", bad, http.StatusBadRequest, nil)

	// store=1 without a cache dir is a 400, not a crash.
	memSrv := httptest.NewServer(NewHandler(NewService(NewStore(StoreOptions{}), testOptions()), nil))
	t.Cleanup(memSrv.Close)
	resp, err = http.Post(memSrv.URL+"/tables?name=x&store=1&workers=1", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	decodeBodyMap(t, resp, http.StatusBadRequest)

	// Bad store values are rejected.
	resp, err = http.Post(srv.URL+"/tables?name=y&store=maybe", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	decodeBodyMap(t, resp, http.StatusBadRequest)
}

func decodeBodyMap(t *testing.T, resp *http.Response, wantStatus int) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d; body %v", resp.StatusCode, wantStatus, out)
	}
	return out
}
