package serve

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"subtab/internal/codestore"
	"subtab/internal/core"
)

// failingPages is a code store whose page reads fail once armed: its
// GatherCodes panics, as codestore's does on a page it cannot read. The
// tuple-vector gather calls it from its parallel workers.
type failingPages struct {
	*codestore.Store
	armed *atomic.Bool
}

func (f failingPages) GatherCodes(c int, rows []int, dst []uint16) {
	if f.armed.Load() {
		panic("codestore: reading page (col 0, block 0): injected I/O error")
	}
	f.Store.GatherCodes(c, rows, dst)
}

// TestWorkerPanicFailsOnlyItsRequest pins that a code store's panic inside
// a select's parallel gather reaches the request, not the process: the
// select on the broken table panics on the caller's goroutine — over HTTP,
// net/http's per-request recovery ends that request — and the next select
// on another table answers. Before, the panic ended the process from a
// worker goroutine no one could recover.
func TestWorkerPanicFailsOnlyItsRequest(t *testing.T) {
	broken := buildModel(t, "broken", 600)
	path := filepath.Join(t.TempDir(), "broken.codes")
	if err := broken.ExportCodeStore(path, 64); err != nil {
		t.Fatal(err)
	}
	cs, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	armed := new(atomic.Bool)
	if err := broken.B.AttachStore(failingPages{cs, armed}); err != nil {
		t.Fatal(err)
	}
	if err := broken.B.DropInlineCodes(); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	store := NewStore(StoreOptions{})
	for name, m := range map[string]*core.Model{"broken": broken, "fine": buildModel(t, "fine", 300)} {
		if err := store.Put(name, m); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewService(store, testOptions())

	var raised any
	func() {
		defer func() { raised = recover() }()
		svc.Select("broken", core.ExploreSpec{K: 4, L: 2})
	}()
	if s, _ := raised.(string); !strings.Contains(s, "injected I/O error") {
		t.Fatalf("select over a failing store raised %v on the caller, want the store's panic", raised)
	}

	srv := httptest.NewUnstartedServer(NewHandler(svc, nil))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	srv.Start()
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v1/tables/broken/select", "application/json", strings.NewReader(`{"k":4,"l":2}`))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("select over a failing store answered %d", resp.StatusCode)
	}
	doJSON(t, "POST", srv.URL+"/v1/tables/fine/select", map[string]any{"k": 4, "l": 2}, http.StatusOK, nil)
}
