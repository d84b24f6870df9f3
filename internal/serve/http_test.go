package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// testCSV renders a deterministic CSV with planted structure.
func testCSV(rows int) string {
	rng := rand.New(rand.NewSource(23))
	var b strings.Builder
	b.WriteString("amount,status,region\n")
	for i := 0; i < rows; i++ {
		g := rng.Intn(3)
		status := []string{"ok", "late", "failed"}[g]
		fmt.Fprintf(&b, "%d,%s,r%d\n", g*50+rng.Intn(10), status, rng.Intn(4))
	}
	return b.String()
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	return srv
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
}

func uploadCSV(t *testing.T, srv *httptest.Server, name, csv string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(srv.URL+"/tables?name="+name+"&seed=4&workers=1", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /tables = %d, want %d; body: %s", resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	json.Unmarshal(raw, &out)
	return out
}

func TestHTTPLifecycle(t *testing.T) {
	srv := newTestServer(t)
	csv := testCSV(300)

	// Health before any table.
	var health map[string]any
	doJSON(t, "GET", srv.URL+"/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}

	// Upload.
	created := uploadCSV(t, srv, "pay", csv, http.StatusCreated)
	if created["rows"] != float64(300) || created["cols"] != float64(3) {
		t.Fatalf("created = %v", created)
	}

	// Duplicate name conflicts; replace=1 overwrites.
	uploadCSV(t, srv, "pay", csv, http.StatusConflict)
	resp, err := http.Post(srv.URL+"/tables?name=pay&replace=1&workers=1", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replace upload = %d, want 201", resp.StatusCode)
	}

	// Listing and info.
	var list struct {
		Tables []TableInfo `json:"tables"`
	}
	doJSON(t, "GET", srv.URL+"/tables", nil, http.StatusOK, &list)
	if len(list.Tables) != 1 || list.Tables[0].Name != "pay" || !list.Tables[0].Loaded {
		t.Fatalf("tables = %+v", list.Tables)
	}
	var info TableInfo
	doJSON(t, "GET", srv.URL+"/tables/pay", nil, http.StatusOK, &info)
	if info.Rows != 300 || len(info.Columns) != 3 {
		t.Fatalf("info = %+v", info)
	}

	// Whole-table select.
	var sel subTableResponse
	doJSON(t, "POST", srv.URL+"/v1/tables/pay/select",
		map[string]any{"k": 5, "l": 2, "targets": []string{"status"}}, http.StatusOK, &sel)
	if len(sel.SourceRows) == 0 || len(sel.SourceRows) > 5 {
		t.Fatalf("select returned %d rows, want 1..5", len(sel.SourceRows))
	}
	if len(sel.Cols) != 2 || len(sel.Cells) != len(sel.SourceRows) {
		t.Fatalf("select shape: cols=%v cells=%d", sel.Cols, len(sel.Cells))
	}
	if !contains(sel.Cols, "status") {
		t.Fatalf("target column missing from %v", sel.Cols)
	}

	// Query select.
	var qsel subTableResponse
	doJSON(t, "POST", srv.URL+"/v1/tables/pay/select", map[string]any{
		"k": 4, "l": 2,
		"query": map[string]any{
			"where": []map[string]any{{"col": "status", "op": "=", "str": "failed"}},
		},
	}, http.StatusOK, &qsel)
	if len(qsel.SourceRows) == 0 {
		t.Fatal("query select returned no rows")
	}
	for _, row := range qsel.Cells {
		if i := index(qsel.Cols, "status"); i >= 0 && row[i] != "failed" {
			t.Fatalf("query row leaked status %q", row[i])
		}
	}

	// Highlighted select.
	var hsel subTableResponse
	doJSON(t, "POST", srv.URL+"/v1/tables/pay/select",
		map[string]any{"k": 6, "l": 3, "highlight": true}, http.StatusOK, &hsel)
	if len(hsel.RuleLabels) != len(hsel.SourceRows) {
		t.Fatalf("rule labels: %d for %d rows", len(hsel.RuleLabels), len(hsel.SourceRows))
	}

	// Rules.
	var rl struct {
		Count int            `json:"count"`
		Rules []ruleResponse `json:"rules"`
	}
	doJSON(t, "GET", srv.URL+"/tables/pay/rules?min_support=0.05", nil, http.StatusOK, &rl)
	if rl.Count != len(rl.Rules) {
		t.Fatalf("rules count %d != %d", rl.Count, len(rl.Rules))
	}
	if rl.Count == 0 {
		t.Fatal("planted structure mined no rules")
	}

	// Delete.
	doJSON(t, "DELETE", srv.URL+"/tables/pay", nil, http.StatusOK, nil)
	doJSON(t, "GET", srv.URL+"/tables/pay", nil, http.StatusNotFound, nil)
}

func TestHTTPErrors(t *testing.T) {
	srv := newTestServer(t)

	// Unknown table.
	doJSON(t, "POST", srv.URL+"/v1/tables/ghost/select", map[string]any{"k": 3, "l": 2}, http.StatusNotFound, nil)
	doJSON(t, "GET", srv.URL+"/tables/ghost/rules", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", srv.URL+"/tables/ghost", nil, http.StatusNotFound, nil)

	// Missing name on upload.
	resp, err := http.Post(srv.URL+"/tables", "text/csv", strings.NewReader("a\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upload without name = %d, want 400", resp.StatusCode)
	}

	// Bad pipeline knob.
	resp, err = http.Post(srv.URL+"/tables?name=x&bins=-3", "text/csv", strings.NewReader("a\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bins = %d, want 400", resp.StatusCode)
	}

	uploadCSV(t, srv, "err", testCSV(120), http.StatusCreated)

	// A query that is not a query object.
	doJSON(t, "POST", srv.URL+"/v1/tables/err/select", map[string]any{"k": 3, "l": 2, "query": "status=failed"}, http.StatusBadRequest, nil)

	// Unknown predicate op and unknown aggregate.
	doJSON(t, "POST", srv.URL+"/v1/tables/err/select", map[string]any{
		"query": map[string]any{"where": []map[string]any{{"col": "amount", "op": "~", "num": 1}}},
	}, http.StatusBadRequest, nil)
	doJSON(t, "POST", srv.URL+"/v1/tables/err/select", map[string]any{
		"query": map[string]any{"group_by": []string{"status"}, "aggs": []map[string]any{{"func": "median"}}},
	}, http.StatusBadRequest, nil)

	// Unknown JSON field is rejected (catches client typos).
	doJSON(t, "POST", srv.URL+"/v1/tables/err/select", map[string]any{"rows": 3}, http.StatusBadRequest, nil)

	// Malformed rules knob.
	doJSON(t, "GET", srv.URL+"/tables/err/rules?min_support=2", nil, http.StatusBadRequest, nil)

	// Unknown target column is the client's mistake: 400, not 500.
	doJSON(t, "POST", srv.URL+"/v1/tables/err/select",
		map[string]any{"k": 3, "l": 2, "targets": []string{"nope"}}, http.StatusBadRequest, nil)

	// Impossible dimensions likewise.
	doJSON(t, "POST", srv.URL+"/v1/tables/err/select",
		map[string]any{"k": -1, "l": 2}, http.StatusBadRequest, nil)

	// Unknown mining target column: 400 from the rules endpoint.
	doJSON(t, "GET", srv.URL+"/tables/err/rules?targets=nope", nil, http.StatusBadRequest, nil)
}

func contains(xs []string, s string) bool { return index(xs, s) >= 0 }

func index(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}
