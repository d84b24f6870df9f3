// Serving-layer tests for out-of-core tables (their whole life in one
// layout is TestLayoutLifecycle's): appends and reloads stay out-of-core,
// every unsharded table is its mapped model file, and the store=1 upload
// knob (a no-op) and a scaled select work over HTTP.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/modelio"
)

// TestAppendKeepsTableOutOfCore pins that appending to a store-backed
// table re-exports the successor's codes instead of silently regressing
// the table to a resident code matrix: the served model stays out-of-core,
// the store file reflects the new row count, and the whole thing survives
// a disk reload.
func TestAppendKeepsTableOutOfCore(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTable("t", testTable("t", 1200, 7), nil, Unsharded, false); err != nil {
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

// TestHTTPOutOfCoreUpload drives uploads with and without the store=1 knob
// and a scaled select over the mapped table end to end. The knob changes
// nothing: the server maps every unsharded table.
func TestHTTPOutOfCoreUpload(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	csv := testCSV(600)

	for _, q := range []string{"name=ooc&store=1&seed=4&workers=1", "name=plain&seed=4&workers=1"} {
		resp, err := http.Post(srv.URL+"/tables?"+q, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		if created := decodeBodyMap(t, resp, http.StatusCreated); created["out_of_core"] != true {
			t.Fatalf("upload %s: response = %v, want out_of_core=true", q, created)
		}
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

	// Bad store values are rejected.
	resp, err := http.Post(srv.URL+"/tables?name=y&store=maybe", "text/csv", strings.NewReader(csv))
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

// TestGetRefusesDamagedPage: a byte flipped inside a data page of a table's
// model file, which the store maps, is found when the file loads: Store.Get
// refuses it with modelio.ErrCorrupt (and the table reads as not found)
// instead of serving the damaged page.
func TestGetRefusesDamagedPage(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m, err := svc.AddTable("t", testTable("t", 300, 7), nil, Unsharded, false)
	if err != nil {
		t.Fatal(err)
	}
	// The cells image is byte for byte the column store the model serves.
	cells := m.CellSource().(*colstore.Store)
	var img bytes.Buffer
	if _, err := cells.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	path := svc.Store().path("t")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, img.Bytes())
	if at < 0 {
		t.Fatal("the model file does not hold the served cells image")
	}
	raw[int64(at)+cells.Off(0, 0)] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewStore(StoreOptions{Dir: dir}).Get("t")
	if !errors.Is(err, modelio.ErrCorrupt) || !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a damaged table: err = %v, want ErrCorrupt and ErrNotFound", err)
	}
}

// TestUnshardedTableIsItsMappedFile pins what a table costs on a store: added without any layout request it is out of core,
// the store directory holds its one model file, and the model served from
// that file's mapping holds under a tenth of the heap the same table's
// resident model does. Its exact selects still fill the full-table vector
// cache, which the governor counts.
func TestUnshardedTableIsItsMappedFile(t *testing.T) {
	dir := t.TempDir()
	g := memgov.New(1 << 30)
	svc := NewService(NewStore(StoreOptions{Dir: dir, Governor: g}), testOptions())
	tab := testTable("t", 5000, 7)
	mapped, err := svc.AddTable("t", tab, nil, Unsharded, false)
	if err != nil {
		t.Fatal(err)
	}
	resident := residentModel(t, testTable("t", 5000, 7))
	if !mapped.OutOfCore() || resident.OutOfCore() {
		t.Fatalf("out of core: %v mapped, %v resident; want true and false", mapped.OutOfCore(), resident.OutOfCore())
	}
	if files := dirFiles(t, dir); len(files) != 1 || files[0] != svc.Store().path("t") {
		t.Fatalf("the store holds %v, want the table's one model file", files)
	}
	if m, r := mapped.ResidentBytes(), resident.ResidentBytes(); m*10 >= r {
		t.Fatalf("the mapped model holds %d heap bytes, the resident one %d: want under a tenth", m, r)
	}
	for i := range 2 {
		if _, err := svc.Select("t", core.ExploreSpec{K: 5, L: 3}); err != nil {
			t.Fatal(err)
		}
		if got := g.ClassBytes(memgov.ClassVectorCache); got <= 0 {
			t.Fatalf("after exact select %d the vector cache holds %d bytes, want the full-table matrix", i+1, got)
		}
	}
}
