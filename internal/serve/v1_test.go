package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"subtab/internal/cluster"
	"subtab/internal/memgov"
	"subtab/internal/table"
)

// v1Response is the decoded shape of a /v1 session view.
type v1Response struct {
	subTableResponse
	Session   string `json:"session"`
	Views     int    `json:"views"`
	ScopeRows int    `json:"scope_rows"`
}

// doRaw issues a JSON request and returns status, headers and raw body —
// the envelope-level view doJSON hides.
func doRaw(t *testing.T, method, url string, body any) (int, http.Header, []byte) {
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
	return resp.StatusCode, resp.Header, raw
}

// wantEnvelope asserts the structured error envelope: the given status and
// code, a non-empty message, and returns the envelope for extra checks.
func wantEnvelope(t *testing.T, method, url string, body any, status int, code string) (errorEnvelope, http.Header) {
	t.Helper()
	got, hdr, raw := doRaw(t, method, url, body)
	if got != status {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, got, status, raw)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s %s: error body %q is not an envelope: %v", method, url, raw, err)
	}
	if env.Code != code || env.Message == "" {
		t.Fatalf("%s %s: envelope %+v, want code %q with a message", method, url, env, code)
	}
	return env, hdr
}

func TestV1SessionWalkthrough(t *testing.T) {
	srv := newTestServer(t)
	uploadCSV(t, srv, "pay", testCSV(300), http.StatusCreated)

	// Create.
	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "pay"}, http.StatusCreated, &info)
	if info.Session == "" || info.Table != "pay" || info.Views != 0 {
		t.Fatalf("created session = %+v", info)
	}
	base := srv.URL + "/v1/sessions/" + info.Session

	// Predicate-scoped select through the consolidated body.
	var sel v1Response
	doJSON(t, "POST", base+"/select", map[string]any{
		"where": []map[string]any{{"col": "status", "op": "=", "str": "failed"}},
		"k":     5, "l": 3,
	}, http.StatusOK, &sel)
	if sel.Session != info.Session || sel.Views != 1 {
		t.Fatalf("first select session/views = %q/%d", sel.Session, sel.Views)
	}
	if len(sel.SourceRows) == 0 || len(sel.SourceRows) > 5 {
		t.Fatalf("select returned %d rows", len(sel.SourceRows))
	}
	if i := index(sel.Cols, "status"); i >= 0 {
		for _, row := range sel.Cells {
			if row[i] != "failed" {
				t.Fatalf("filtered select leaked status %q", row[i])
			}
		}
	}

	// Second select with session weights engages coverage + column bias.
	var sel2 v1Response
	doJSON(t, "POST", base+"/select", map[string]any{
		"k": 5, "l": 3,
		"weights": map[string]any{"null_rate": 1, "view_count": 0.5},
	}, http.StatusOK, &sel2)
	if sel2.Views != 2 {
		t.Fatalf("second select views = %d", sel2.Views)
	}

	// Cell-anchored drill-down from the last view.
	var dd v1Response
	doJSON(t, "POST", base+"/drilldown", map[string]any{
		"row": sel2.SourceRows[0], "col": sel2.Cols[0],
		"k": 4, "l": 3,
	}, http.StatusOK, &dd)
	if dd.Views != 3 || dd.ScopeRows <= 0 {
		t.Fatalf("drill-down views/scope = %d/%d", dd.Views, dd.ScopeRows)
	}
	if len(dd.SourceRows) == 0 {
		t.Fatal("drill-down returned no rows")
	}

	// Status reflects the dialogue.
	var status SessionInfo
	doJSON(t, "GET", base, nil, http.StatusOK, &status)
	if status.Views != 3 || status.Covered == 0 {
		t.Fatalf("status = %+v, want 3 views and covered strata", status)
	}

	// Delete, then the session is gone with a typed envelope.
	doJSON(t, "DELETE", base, nil, http.StatusOK, nil)
	wantEnvelope(t, "GET", base, nil, http.StatusNotFound, "not_found")
}

func TestV1ErrorEnvelopes(t *testing.T) {
	srv := newTestServer(t)
	uploadCSV(t, srv, "pay", testCSV(200), http.StatusCreated)

	// Unknown table and missing field on create.
	wantEnvelope(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "ghost"}, http.StatusNotFound, "not_found")
	wantEnvelope(t, "POST", srv.URL+"/v1/sessions", map[string]any{}, http.StatusBadRequest, "bad_request")

	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "pay"}, http.StatusCreated, &info)
	base := srv.URL + "/v1/sessions/" + info.Session

	// Bad predicate op, bad shape, drill-down without a view: all
	// bad_request envelopes.
	wantEnvelope(t, "POST", base+"/select", map[string]any{
		"where": []map[string]any{{"col": "amount", "op": "~", "num": 1}},
	}, http.StatusBadRequest, "bad_request")
	wantEnvelope(t, "POST", base+"/select", map[string]any{"k": -2}, http.StatusBadRequest, "bad_request")
	wantEnvelope(t, "POST", base+"/drilldown", map[string]any{"row": 0}, http.StatusBadRequest, "bad_request")

	// A select works; a drill-down from a row outside the view is refused.
	var sel v1Response
	doJSON(t, "POST", base+"/select", map[string]any{"k": 4, "l": 2}, http.StatusOK, &sel)
	env, _ := wantEnvelope(t, "POST", base+"/drilldown", map[string]any{"row": -99}, http.StatusBadRequest, "bad_request")
	if !strings.Contains(env.Message, "anchor row") {
		t.Fatalf("anchor refusal message %q", env.Message)
	}

	// Replacing the table strands the session: conflict, not stale results.
	resp, err := http.Post(srv.URL+"/tables?name=pay&replace=1&workers=1", "text/csv", strings.NewReader(testCSV(200)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replace upload = %d", resp.StatusCode)
	}
	// RemoveTable/replace drops the table's sessions; whether the session
	// vanished (404) or survived long enough to see the generation bump
	// (409), the client gets a typed refusal, never old-table rows.
	code, _, raw := doRaw(t, "POST", base+"/select", map[string]any{"k": 3, "l": 2})
	if code != http.StatusConflict && code != http.StatusNotFound {
		t.Fatalf("select on stale session = %d; body %s", code, raw)
	}
	var env2 errorEnvelope
	if err := json.Unmarshal(raw, &env2); err != nil || (env2.Code != "conflict" && env2.Code != "not_found") {
		t.Fatalf("stale session envelope %s", raw)
	}
}

// TestSessionWeightsMustBeNonNegative pins that weights which would invert
// the column bias are the request's fault on both session routes: a
// negative, NaN or infinite weight answers ErrBadRequest and records no
// view, where ViewCount -1 used to pin the columns shown once first.
func TestSessionWeightsMustBeNonNegative(t *testing.T) {
	tbl, err := table.ReadCSV("pay", strings.NewReader(testCSV(120)))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	if _, err := svc.AddTable("pay", tbl, nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	info, err := svc.CreateSession("pay")
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.SessionSelect(info.Session, nil, 4, 2, nil, nil, &SessionWeights{})
	if err != nil {
		t.Fatalf("zero weights: %v", err)
	}
	for _, wt := range []SessionWeights{
		{ViewCount: -1},
		{NullRate: -0.5, ViewCount: 1},
		{ViewCount: math.NaN()},
		{NullRate: math.Inf(1)},
	} {
		if _, err := svc.SessionSelect(info.Session, nil, 4, 2, nil, nil, &wt); !errors.Is(err, ErrBadRequest) {
			t.Errorf("select with weights %+v: %v, want ErrBadRequest", wt, err)
		}
		if _, _, err := svc.SessionDrillDown(info.Session, st.SourceRows[0], "", 4, 2, nil, nil, &wt); !errors.Is(err, ErrBadRequest) {
			t.Errorf("drill-down with weights %+v: %v, want ErrBadRequest", wt, err)
		}
	}
	if status, err := svc.SessionStatus(info.Session); err != nil || status.Views != 1 {
		t.Fatalf("session after refused selects: %+v, %v; want 1 view", status, err)
	}
}

func TestV1OverloadedEnvelope(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	uploadCSV(t, srv, "pay", testCSV(150), http.StatusCreated)

	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "pay"}, http.StatusCreated, &info)

	// A one-byte budget sheds every select at the door.
	svc.SetAdmission(memgov.New(1), 0)
	env, hdr := wantEnvelope(t, "POST", srv.URL+"/v1/sessions/"+info.Session+"/select",
		map[string]any{"k": 3, "l": 2}, http.StatusTooManyRequests, "overloaded")
	if env.RetryAfter <= 0 {
		t.Fatalf("429 envelope retry_after = %d, want > 0", env.RetryAfter)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
}

// TestLegacyRoutesDeprecated pins the removal of the unversioned
// select/query routes: they answer 404 with the error envelope like any
// unmatched path, and no response carries a deprecation marker.
func TestLegacyRoutesDeprecated(t *testing.T) {
	srv := newTestServer(t)
	uploadCSV(t, srv, "pay", testCSV(150), http.StatusCreated)

	// Header lookups canonicalize the key.
	noMarker := func(what string, hdr http.Header) {
		t.Helper()
		for _, key := range []string{"deprecation", "link"} {
			if v := hdr.Get(key); v != "" {
				t.Fatalf("%s carries %s: %q", what, key, v)
			}
		}
	}
	for _, path := range []string{"/tables/pay/select", "/tables/pay/query"} {
		_, hdr := wantEnvelope(t, "POST", srv.URL+path, map[string]any{"k": 3, "l": 2}, http.StatusNotFound, "not_found")
		noMarker("POST "+path, hdr)
	}
	code, hdr, raw := doRaw(t, "POST", srv.URL+"/v1/tables/pay/select", map[string]any{"k": 3, "l": 2})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/tables/pay/select = %d; body %s", code, raw)
	}
	noMarker("POST /v1/tables/pay/select", hdr)
}

// TestV1DrillDownDeterminism replays the same dialogue against two
// independent servers: every view must be identical.
func TestV1DrillDownDeterminism(t *testing.T) {
	run := func() [][]int {
		srv := newTestServer(t)
		uploadCSV(t, srv, "pay", testCSV(300), http.StatusCreated)
		var info SessionInfo
		doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "pay"}, http.StatusCreated, &info)
		base := srv.URL + "/v1/sessions/" + info.Session
		var trace [][]int
		var sel v1Response
		doJSON(t, "POST", base+"/select", map[string]any{
			"where": []map[string]any{{"col": "amount", "op": ">=", "num": 40}},
			"k":     5, "l": 3,
		}, http.StatusOK, &sel)
		trace = append(trace, sel.SourceRows)
		var sel2 v1Response
		doJSON(t, "POST", base+"/select", map[string]any{
			"k": 5, "l": 3,
			"weights": map[string]any{"view_count": 1},
		}, http.StatusOK, &sel2)
		trace = append(trace, sel2.SourceRows)
		var dd v1Response
		doJSON(t, "POST", base+"/drilldown", map[string]any{
			"row": sel2.SourceRows[1], "col": sel2.Cols[0],
			"k": 4, "l": 2,
		}, http.StatusOK, &dd)
		trace = append(trace, append([]int{dd.ScopeRows}, dd.SourceRows...))
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed dialogue diverged:\n %v\n %v", a, b)
	}
}

// TestHTTPAdmissionReservesExactLeg: a select whose filter leaves fewer
// candidates than the scale threshold clusters every candidate exactly, so
// admission must reserve that slab, not the sample's. The budget sits
// between the two: the unfiltered (sampled) select fits it, the filtered
// one is shed.
func TestHTTPAdmissionReservesExactLeg(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	uploadCSV(t, srv, "pay", testCSV(900), http.StatusCreated)

	const dim = 12 // testOptions
	sampled := int64(100*dim*4 + 100*8)
	exact := int64(799 * (dim*4 + cluster.BytesPerPoint))
	svc.SetAdmission(memgov.New((sampled+exact)/2), 0)
	scale := map[string]any{"threshold": 800, "sample_budget": 100}
	url := srv.URL + "/v1/tables/pay/select"
	doJSON(t, "POST", url, map[string]any{"k": 4, "l": 2, "scale": scale}, http.StatusOK, nil)
	filtered := map[string]any{
		"k": 4, "l": 2, "scale": scale,
		"query": map[string]any{"where": []map[string]any{{"col": "amount", "op": ">=", "num": 50}}},
	}
	wantEnvelope(t, "POST", url, filtered, http.StatusTooManyRequests, "overloaded")
}

// TestHTTPRetiredSlabBudget pins the contract of the removed slab spill
// settings: a select body's scale.slab_budget is an unknown field, so the
// typed 400, while an upload's scale_slab_budget parameter is ignored like
// any other unknown query parameter.
func TestHTTPRetiredSlabBudget(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/tables?name=pay&workers=1&scale_slab_budget=1", "text/csv", strings.NewReader(testCSV(120)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload with scale_slab_budget = %d, want 201", resp.StatusCode)
	}
	env, _ := wantEnvelope(t, "POST", srv.URL+"/v1/tables/pay/select",
		map[string]any{"k": 3, "l": 2, "scale": map[string]any{"slab_budget": 1}}, http.StatusBadRequest, "bad_request")
	if !strings.Contains(env.Message, "slab_budget") {
		t.Fatalf("envelope message %q does not name the unknown field", env.Message)
	}
}

// TestHTTPPipelineKnobBounds pins the upper bounds of the bins and dim
// upload knobs: bin codes are uint16 and a model file holds at most
// word2vec.MaxDim dimensions, so a larger value is the typed 400 naming
// the knob, before the CSV is read, rather than a model that shares one
// code between two bins or cannot be loaded back.
func TestHTTPPipelineKnobBounds(t *testing.T) {
	srv := newTestServer(t)
	for _, knob := range []string{"bins=70000", "dim=70000"} {
		resp, err := http.Post(srv.URL+"/tables?name=x&workers=1&"+knob, "text/csv", strings.NewReader("a\n1\n2\n"))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env errorEnvelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil || env.Code != "bad_request" {
			t.Fatalf("upload with %s = %d %s, want the typed 400", knob, resp.StatusCode, raw)
		}
		if name, _, _ := strings.Cut(knob, "="); !strings.Contains(env.Message, "parameter "+name) {
			t.Fatalf("upload with %s: message %q does not name the knob", knob, env.Message)
		}
	}
}
