package serve

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"subtab/internal/codestore"
	"subtab/internal/core"
	"subtab/internal/memgov"
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
// select on the broken table panics on the caller's goroutine, over HTTP
// the handler answers the 500 internal envelope naming the cause and the
// admission reservation is released, and the next select on another table
// answers.
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
	armed.Store(true)
	store := NewStore(StoreOptions{Dir: t.TempDir()})
	store.putResident("broken", broken)
	if err := store.put("fine", buildModel(t, "fine", 300)); err != nil {
		t.Fatal(err)
	}
	svc := NewService(store, testOptions())
	gov := memgov.New(1 << 30)
	svc.SetAdmission(gov, 0)

	var raised any
	func() {
		defer func() { raised = recover() }()
		svc.Select("broken", core.ExploreSpec{K: 4, L: 2})
	}()
	if s, _ := raised.(string); !strings.Contains(s, "injected I/O error") {
		t.Fatalf("select over a failing store raised %v on the caller, want the store's panic", raised)
	}

	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	var env errorEnvelope
	doJSON(t, "POST", srv.URL+"/v1/tables/broken/select", map[string]any{"k": 4, "l": 2}, http.StatusInternalServerError, &env)
	if env.Code != "internal" || !strings.Contains(env.Message, "injected I/O error") {
		t.Fatalf("select over a failing store answered %+v, want the internal envelope naming the store's panic", env)
	}
	if got := gov.ClassBytes(memgov.ClassRequests); got != 0 {
		t.Fatalf("ClassRequests = %d after the panicking select, want 0", got)
	}
	doJSON(t, "POST", srv.URL+"/v1/tables/fine/select", map[string]any{"k": 4, "l": 2}, http.StatusOK, nil)
}
