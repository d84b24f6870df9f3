package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"subtab/internal/table"
)

// FuzzV1Body drives the JSON bodies of the three select-shaped endpoints —
// the table select, the session select and the drill-down — through the
// handler on a small resident table (installed in its store without a
// model file), without a listener. Whatever the bytes, the handler must
// not panic or answer 5xx, and every non-2xx answer must be the typed
// error envelope. A body carrying a negative session weight must answer
// the bad_request envelope. Every table-select body also goes to a paged
// copy of the table that another store added and serves mapped from its
// model file: a select is a function of (table, spec) on every layout, so
// both answer the same status and, on 200, the same rows, columns, cells
// and rule labels.
//
//	go test -run '^$' -fuzz=FuzzV1Body -fuzztime=10s ./internal/serve/
func FuzzV1Body(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"k":6,"l":3,"targets":["status"],"highlight":true}`},
		{0, `{"k":4,"l":3,"query":{"where":[{"col":"amount","op":">=","num":40}],"select":["amount","status"]}}`},
		{0, `{"k":3,"l":2,"scale":{"threshold":1,"sample_budget":64,"batch_size":16,"max_iter":5}}`},
		{1, `{"where":[{"col":"status","op":"=","str":"failed"}],"k":5,"l":3}`},
		{1, `{"k":5,"l":3,"weights":{"null_rate":1,"view_count":0.5}}`},
		{1, `{"k":5,"l":3,"weights":{"null_rate":0,"view_count":0}}`},
		{1, `{"k":5,"l":3,"weights":{"view_count":-1}}`},
		{1, `{"k":5,"l":3,"weights":{"null_rate":-0.5,"view_count":2}}`},
		{1, `{"where":[{"col":"amount","op":"~","num":1}]}`},
		{1, `{"k":-2}`},
		{2, `{"row":0,"col":"amount","k":4,"l":3}`},
		{2, `{"row":-99}`},
		{2, `{"row":1,"col":"status","k":4,"l":2,"weights":{"view_count":1}}`},
		{2, `{"row":1,"k":4,"l":2,"weights":{"null_rate":0,"view_count":0}}`},
		{2, `{"row":1,"k":4,"l":2,"weights":{"view_count":-1}}`},
		{2, ``},
		{1, `{"k":`},
		{0, `{"k":65536,"l":1,"scale":{"threshold":1,"sample_budget":1000000000,"batch_size":1000000000,"max_iter":1000000000}}`},
		{2, `{"row":3,"k":256,"l":256,"scale":{"threshold":1,"batch_size":1000000000}}`},
		{0, `{"k":4,"l":2,"query":{"group_by":["status","region"],"aggs":[{"func":"count"},{"func":"avg","col":"amount"}]}}`},
		{0, `{"k":4,"l":3,"query":{"select":["amount","status","region"],"order_by":"amount","asc":true,"limit":60}}`},
		{0, `{"k":3,"l":2,"query":{"select":["region","amount"],"order_by":"amount"},"scale":{"threshold":1,"sample_budget":32}}`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	payTable := func() *table.Table {
		tbl, err := table.ReadCSV("pay", strings.NewReader(testCSV(120)))
		if err != nil {
			f.Fatal(err)
		}
		return tbl
	}
	resident := NewStore(StoreOptions{Dir: f.TempDir()})
	resident.putResident("pay", residentModel(f, payTable()))
	h := NewHandler(NewService(resident, testOptions()), nil)
	pagedSvc := NewService(NewStore(StoreOptions{Dir: f.TempDir()}), testOptions())
	if _, err := pagedSvc.AddTable("pay", payTable(), nil, Unsharded, false); err != nil {
		f.Fatal(err)
	}
	paged := NewHandler(pagedSvc, nil)
	postTo := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	post := func(path string, body []byte) *httptest.ResponseRecorder { return postTo(h, path, body) }
	rec := post("/v1/sessions", []byte(`{"table":"pay"}`))
	var info SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusCreated {
		f.Fatalf("creating the session: %d %s", rec.Code, rec.Body)
	}
	// One view up front, so drill-downs have rows to anchor on.
	if rec := post("/v1/sessions/"+info.Session+"/select", []byte(`{"k":4,"l":3}`)); rec.Code != http.StatusOK {
		f.Fatalf("first session select: %d %s", rec.Code, rec.Body)
	}
	paths := []string{
		"/v1/tables/pay/select",
		"/v1/sessions/" + info.Session + "/select",
		"/v1/sessions/" + info.Session + "/drilldown",
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		rec := post(path, body)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
		}
		if path == paths[0] {
			if err := sameSelect(rec, postTo(paged, path, body)); err != nil {
				t.Fatalf("POST %s %q: resident and paged tables differ: %v", path, body, err)
			}
		}
		var env errorEnvelope
		var shape struct {
			Weights *SessionWeights `json:"weights"`
		}
		if int64(len(body)) <= maxBody && json.Unmarshal(body, &shape) == nil && shape.Weights != nil &&
			(shape.Weights.NullRate < 0 || shape.Weights.ViewCount < 0) {
			if json.Unmarshal(rec.Body.Bytes(), &env) != nil || rec.Code != http.StatusBadRequest || env.Code != "bad_request" {
				t.Fatalf("POST %s %q carries a negative weight = %d, want the bad_request envelope: %s", path, body, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code/100 == 2 {
			return
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" || env.Message == "" {
			t.Fatalf("POST %s %q = %d without the error envelope: %s", path, body, rec.Code, rec.Body)
		}
	})
}

// sameSelect compares a table select's answers from the resident and the
// paged table: the same status, and on 200 the same source rows, columns,
// cells and rule labels.
func sameSelect(resident, paged *httptest.ResponseRecorder) error {
	if resident.Code != paged.Code {
		return fmt.Errorf("status %d vs %d: %s / %s", resident.Code, paged.Code, resident.Body, paged.Body)
	}
	if resident.Code != http.StatusOK {
		return nil
	}
	var a, b subTableResponse
	if err := json.Unmarshal(resident.Body.Bytes(), &a); err != nil {
		return err
	}
	if err := json.Unmarshal(paged.Body.Bytes(), &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a.SourceRows, b.SourceRows) || !reflect.DeepEqual(a.Cols, b.Cols) ||
		!reflect.DeepEqual(a.Cells, b.Cells) || !reflect.DeepEqual(a.RuleLabels, b.RuleLabels) {
		return fmt.Errorf("%s\nvs\n%s", resident.Body, paged.Body)
	}
	return nil
}
