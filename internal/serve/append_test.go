package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"subtab/internal/core"
)

// appendCSV posts a CSV body to the append endpoint and decodes the reply.
func appendCSV(t *testing.T, srv string, name, csv, params string, wantStatus int) map[string]any {
	t.Helper()
	url := srv + "/tables/" + name + "/append"
	if params != "" {
		url += "?" + params
	}
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d; body: %s", url, resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	json.Unmarshal(raw, &out)
	return out
}

func TestHTTPAppend(t *testing.T) {
	srv := newTestServer(t)
	uploadCSV(t, srv, "pay", testCSV(300), http.StatusCreated)

	// Same-distribution rows take the incremental path.
	got := appendCSV(t, srv.URL, "pay", testCSV(30), "", http.StatusOK)
	if got["rows"] != float64(330) {
		t.Fatalf("rows = %v, want 330", got["rows"])
	}
	ap, ok := got["append"].(map[string]any)
	if !ok {
		t.Fatalf("no append stats in %v", got)
	}
	if ap["appended_rows"] != float64(30) {
		t.Fatalf("appended_rows = %v, want 30", ap["appended_rows"])
	}
	if ap["rebinned"] != false {
		t.Fatalf("same-distribution append rebinned: %v", ap["rebin_reason"])
	}

	// The appended table keeps serving selects and queries.
	var sel subTableResponse
	doJSON(t, "POST", srv.URL+"/v1/tables/pay/select", map[string]any{"k": 5, "l": 2}, http.StatusOK, &sel)
	for _, r := range sel.SourceRows {
		if r < 0 || r >= 330 {
			t.Fatalf("selected row %d out of range after append", r)
		}
	}
	var info TableInfo
	doJSON(t, "GET", srv.URL+"/tables/pay", nil, http.StatusOK, &info)
	if info.Rows != 330 {
		t.Fatalf("info.Rows = %d, want 330", info.Rows)
	}

	// rebin=1 forces the full path; the response says so.
	got = appendCSV(t, srv.URL, "pay", testCSV(10), "rebin=1", http.StatusOK)
	ap = got["append"].(map[string]any)
	if ap["rebinned"] != true || ap["rebin_reason"] != "forced" {
		t.Fatalf("forced rebin stats = %v", ap)
	}

	// A wildly shifted distribution arriving in bulk trips the drift rebin
	// (the chunk must be big enough to move the table's aggregate
	// distribution past the threshold — small weird chunks are absorbed).
	var b strings.Builder
	b.WriteString("amount,status,region\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "%d,weird,r9\n", 100000+i)
	}
	got = appendCSV(t, srv.URL, "pay", b.String(), "", http.StatusOK)
	ap = got["append"].(map[string]any)
	if ap["rebinned"] != true {
		t.Fatalf("shifted append did not rebin: %v", ap)
	}
}

// TestHTTPAppendNumericLookingCategoricalChunk: a chunk is too small a
// sample to re-infer column types from. Here the categorical "model"
// column's chunk values all parse as numbers; schema-aware parsing must
// keep them categorical and the append must succeed.
func TestHTTPAppendNumericLookingCategoricalChunk(t *testing.T) {
	srv := newTestServer(t)
	var b strings.Builder
	b.WriteString("amount,model\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "%d,%s\n", i%40, []string{"A320", "737", "747"}[i%3])
	}
	uploadCSV(t, srv, "fleet", b.String(), http.StatusCreated)

	got := appendCSV(t, srv.URL, "fleet", "amount,model\n7,737\n9,747\n", "", http.StatusOK)
	if got["rows"] != float64(122) {
		t.Fatalf("rows = %v, want 122", got["rows"])
	}
	ap := got["append"].(map[string]any)
	if ap["new_categories"] != float64(0) {
		t.Fatalf("known categories re-interned as new: %v", ap)
	}

	// The reverse protection: letters in a numeric column are still a 400,
	// named after the column.
	appendCSV(t, srv.URL, "fleet", "amount,model\nlots,737\n", "", http.StatusBadRequest)
}

func TestHTTPAppendErrors(t *testing.T) {
	srv := newTestServer(t)
	uploadCSV(t, srv, "pay", testCSV(120), http.StatusCreated)

	// Unknown table.
	appendCSV(t, srv.URL, "ghost", testCSV(5), "", http.StatusNotFound)

	// Malformed CSV body (ragged row).
	appendCSV(t, srv.URL, "pay", "amount,status,region\n1,ok\n", "", http.StatusBadRequest)

	// Schema mismatch: missing a served column.
	appendCSV(t, srv.URL, "pay", "amount,status\n1,ok\n", "", http.StatusBadRequest)

	// Kind mismatch: non-numeric values in a numeric column.
	appendCSV(t, srv.URL, "pay", "amount,status,region\nlots,ok,r1\n", "", http.StatusBadRequest)

	// Bad knobs — including a mistyped rebin, which must not silently run
	// the incremental path the caller tried to bypass.
	appendCSV(t, srv.URL, "pay", testCSV(5), "drift=-1", http.StatusBadRequest)
	appendCSV(t, srv.URL, "pay", testCSV(5), "epochs=zero", http.StatusBadRequest)
	appendCSV(t, srv.URL, "pay", testCSV(5), "rebin=yes", http.StatusBadRequest)
	appendCSV(t, srv.URL, "pay", testCSV(5), "rebin=True", http.StatusBadRequest)

	// The errors above left the table untouched.
	var info TableInfo
	doJSON(t, "GET", srv.URL+"/tables/pay", nil, http.StatusOK, &info)
	if info.Rows != 120 {
		t.Fatalf("failed appends changed the table: %d rows", info.Rows)
	}
}

// TestHTTPOversizedBody: every body kind past its bound answers 413 with
// the too_large envelope — CSV uploads and appends, and the JSON routes.
func TestHTTPOversizedBody(t *testing.T) {
	prevCSV, prevBody := maxCSVBody, maxBody
	maxCSVBody, maxBody = 256, 64
	defer func() { maxCSVBody, maxBody = prevCSV, prevBody }()
	srv := newTestServer(t)
	uploadCSV(t, srv, "pay", testCSV(4), http.StatusCreated)
	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "pay"}, http.StatusCreated, &info)

	huge := map[string]any{"targets": []string{strings.Repeat("x", 128)}}
	for _, path := range []string{
		"/v1/sessions",
		"/v1/sessions/" + info.Session + "/select",
		"/v1/sessions/" + info.Session + "/drilldown",
		"/v1/tables/pay/select",
	} {
		wantEnvelope(t, "POST", srv.URL+path, huge, http.StatusRequestEntityTooLarge, "too_large")
	}

	big := testCSV(64) // well past 256 bytes
	resp, err := http.Post(srv.URL+"/tables?name=huge", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", resp.StatusCode)
	}
	appendCSV(t, srv.URL, "pay", big, "", http.StatusRequestEntityTooLarge)
}

// TestHTTPAppendRacingSelect hammers the select endpoint while rows stream
// in. Every response must succeed against a consistent model: selected
// source rows always within the bounds of some generation's table, never a
// torn state. The store holds one model: every select holds a model mapped
// from its file while the append re-pages the table into a new file, a
// second table is replaced under its own selects, and each switch between
// the two evicts the other, whose mapping goes when its last select lets
// go. Run under -race in CI.
func TestHTTPAppendRacingSelect(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		svc := NewService(NewStore(StoreOptions{Dir: t.TempDir(), MaxModels: 1}), testOptions())
		srv := httptest.NewServer(NewHandler(svc, nil))
		t.Cleanup(srv.Close)
		raceAppendsAndSelects(t, srv)
	})
}

// raceAppendsAndSelects appends rows to table "pay" while selectors read
// it and a second table, "other", which is replaced under them.
func raceAppendsAndSelects(t *testing.T, srv *httptest.Server) {
	uploadCSV(t, srv, "pay", testCSV(200), http.StatusCreated)
	uploadCSV(t, srv, "other", testCSV(200), http.StatusCreated)

	const appends = 5
	const selectors = 4
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	post := func(path, csv string) {
		resp, err := http.Post(srv.URL+path, "text/csv", strings.NewReader(csv))
		if err != nil {
			errs <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			errs <- fmt.Errorf("POST %s = %d", path, resp.StatusCode)
		}
	}

	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			post("/tables/pay/append", testCSV(10))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			post("/tables?name=other&seed=4&workers=1&replace=1", testCSV(200))
		}
	}()
	for g := 0; g < selectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				table, bound := "pay", 200+appends*10
				if (g+i)%2 == 1 {
					table, bound = "other", 200
				}
				var sel subTableResponse
				doJSON(t, "POST", srv.URL+"/v1/tables/"+table+"/select", map[string]any{"k": 4, "l": 2}, http.StatusOK, &sel)
				for _, r := range sel.SourceRows {
					if r < 0 || r >= bound {
						errs <- fmt.Errorf("selected row %d of %s out of any generation's bounds", r, table)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A select loads "pay" back if the last switch evicted it; the info
	// reports rows of a table in memory.
	doJSON(t, "POST", srv.URL+"/v1/tables/pay/select", map[string]any{"k": 4, "l": 2}, http.StatusOK, nil)
	var info TableInfo
	doJSON(t, "GET", srv.URL+"/tables/pay", nil, http.StatusOK, &info)
	if info.Rows != 200+appends*10 {
		t.Fatalf("final rows = %d, want %d (an append was lost)", info.Rows, 200+appends*10)
	}
}

// TestServiceConcurrentAppendsCompose drives Service.AppendRows directly:
// concurrent appends to one table must serialize and both land.
func TestServiceConcurrentAppendsCompose(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	base := testTable("pay", 150, 3)
	if _, err := svc.AddTable("pay", base, nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			delta := testTable("pay", 10, int64(100+w))
			_, _, err := svc.AppendRows("pay", delta, core.AppendOptions{DriftThreshold: 1})
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := svc.Model("pay")
	if err != nil {
		t.Fatal(err)
	}
	if m.T.NumRows() != 150+writers*10 {
		t.Fatalf("rows = %d, want %d (a concurrent append was lost)", m.T.NumRows(), 150+writers*10)
	}
}

// TestZeroRowAppendIsFreeOfSideEffects: an empty chunk (a polling
// ingester's heartbeat between batches) must not rewrite the model file,
// bump the generation, or flush caches — the model did not change.
func TestZeroRowAppendIsFreeOfSideEffects(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(StoreOptions{Dir: dir})
	svc := NewService(store, testOptions())
	if _, err := svc.AddTable("pay", testTable("pay", 100, 3), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	// Remove the persisted file: a no-op Update must not resurrect it.
	path := store.path("pay")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	empty := testTable("pay", 0, 1)
	m, stats, err := svc.AppendRows("pay", empty, core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AppendedRows != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if m.T.NumRows() != 100 {
		t.Fatalf("rows = %d", m.T.NumRows())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("zero-row append re-persisted an unchanged model")
	}
	// A real append persists again.
	if _, _, err := svc.AppendRows("pay", testTable("pay", 5, 9), core.AppendOptions{DriftThreshold: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("real append did not persist")
	}
}

// TestAppendPersistsThroughStore verifies the disk path: an append on a
// disk-backed store persists the replacement model, so a fresh store over
// the same directory serves the appended table.
func TestAppendPersistsThroughStore(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTable("pay", testTable("pay", 120, 3), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AppendRows("pay", testTable("pay", 15, 7), core.AppendOptions{DriftThreshold: 1}); err != nil {
		t.Fatal(err)
	}

	svc2 := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m, err := svc2.Model("pay")
	if err != nil {
		t.Fatal(err)
	}
	if m.T.NumRows() != 135 {
		t.Fatalf("reloaded rows = %d, want 135", m.T.NumRows())
	}
	// And an append on the reloaded (disk-only) model works too.
	if _, _, err := svc2.AppendRows("pay", testTable("pay", 5, 9), core.AppendOptions{DriftThreshold: 1}); err != nil {
		t.Fatal(err)
	}
	m, err = svc2.Model("pay")
	if err != nil {
		t.Fatal(err)
	}
	if m.T.NumRows() != 140 {
		t.Fatalf("rows after disk-backed append = %d, want 140", m.T.NumRows())
	}
}
