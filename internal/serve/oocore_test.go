// Serving-layer tests for out-of-core tables (their whole life in one
// layout is TestLayoutLifecycle's): appends and reloads stay out-of-core,
// paged layouts need a disk-backed store, and the store=1 upload knob and
// the per-request slab budget work over HTTP.
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"subtab/internal/core"
)

// TestAppendKeepsTableOutOfCore pins that appending to a store-backed
// table re-exports the successor's codes instead of silently regressing
// the table to a resident code matrix: the served model stays out-of-core,
// the store file reflects the new row count, and the whole thing survives
// a disk reload.
func TestAppendKeepsTableOutOfCore(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTable("t", testTable("t", 1200, 7), nil, Paged, false); err != nil {
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
		t.Fatal("append regressed the table to resident codes")
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

// TestAddTableOutOfCoreNeedsDisk pins the memory-only rejection of every
// paged layout.
func TestAddTableOutOfCoreNeedsDisk(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	for _, l := range []Layout{Paged, Shards(1), Shards(2)} {
		if _, err := svc.AddTable("t", testTable("t", 200, 1), nil, l, false); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("layout %d without a disk-backed store: %v, want a bad request", l, err)
		}
	}
}

// TestHTTPOutOfCoreUpload drives the store=1 knob and a scaled select over
// the paged table end to end.
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

	// Scaled select over the paged table.
	var sel struct {
		SourceRows []int `json:"source_rows"`
	}
	body := map[string]any{
		"k": 5, "l": 3,
		"scale": map[string]any{"threshold": 1, "sample_budget": 300, "batch_size": 64, "max_iter": 20},
	}
	doJSON(t, "POST", srv.URL+"/v1/tables/ooc/select", body, http.StatusOK, &sel)
	if len(sel.SourceRows) != 5 {
		t.Fatalf("select returned %d rows, want 5", len(sel.SourceRows))
	}

	// A negative scale knob is the caller's bug.
	bad := map[string]any{"k": 5, "l": 3, "scale": map[string]any{"sample_budget": -1}}
	doJSON(t, "POST", srv.URL+"/v1/tables/ooc/select", bad, http.StatusBadRequest, nil)

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
