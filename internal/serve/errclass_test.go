package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"subtab/internal/core"
	"subtab/internal/query"
	"subtab/internal/table"
)

// failingCells is a cell source whose every gather and materialization
// fails — a column store whose page checksum no longer verifies.
type failingCells struct{ t *table.Table }

var errBadPage = errors.New("colstore: page 3 checksum mismatch")

func (f failingCells) NumRows() int                             { return f.t.NumRows() }
func (f failingCells) NumCols() int                             { return f.t.NumCols() }
func (f failingCells) ColumnName(c int) string                  { return f.t.ColumnAt(c).Name }
func (f failingCells) GatherCells(int, []int) ([]string, error) { return nil, errBadPage }
func (f failingCells) MaterializeTable(string) (*table.Table, error) {
	return nil, errBadPage
}

// TestSelectErrorClasses pins whose fault a failed select is. A refusal, a
// malformed spec and an empty match are the request's: 400 bad_request, as
// before. The executor failing — a dead shard peer, a column store that
// cannot gather — is the service's: 500 internal with the cause kept in the
// chain, on the table select and on a session alike.
func TestSelectErrorClasses(t *testing.T) {
	// A model whose view gathers through a broken cell source.
	m := buildModel(t, "cells", 300)
	if err := m.AttachColumnStore(failingCells{m.T}); err != nil {
		t.Fatal(err)
	}
	m.T.DropCells()
	store := NewStore(StoreOptions{Dir: t.TempDir()})
	store.putResident("cells", m)
	svc := NewService(store, testOptions())
	_, err := svc.Select("cells", core.ExploreSpec{K: 4, L: 2})
	if err == nil || errors.Is(err, ErrBadRequest) || !errors.Is(err, errBadPage) {
		t.Fatalf("select over a failing cell source: %v; want the gather failure, not a bad request", err)
	}
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	env, _ := wantEnvelope(t, "POST", srv.URL+"/v1/tables/cells/select", map[string]any{"k": 4, "l": 2}, http.StatusInternalServerError, "internal")
	if !strings.Contains(env.Message, errBadPage.Error()) {
		t.Fatalf("500 envelope %q lost the cause", env.Message)
	}
	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"table": "cells"}, http.StatusCreated, &info)
	wantEnvelope(t, "POST", srv.URL+"/v1/sessions/"+info.Session+"/select", map[string]any{"k": 4, "l": 2}, http.StatusInternalServerError, "internal")
	// A residual predicate reads cells through the same source mid-scan,
	// and a group-by materializes them.
	_, err = svc.Select("cells", core.ExploreSpec{K: 4, L: 2, Where: []query.Predicate{{Col: "num", Op: query.Lt, Num: 11.5}}})
	if err == nil || errors.Is(err, ErrBadRequest) || !errors.Is(err, errBadPage) {
		t.Fatalf("residual gather failure: %v; want the gather failure, not a bad request", err)
	}
	groupBy := map[string]any{"group_by": []string{"cat"}, "aggs": []map[string]any{{"func": "count"}}}
	wantEnvelope(t, "POST", srv.URL+"/v1/tables/cells/select", map[string]any{"k": 4, "l": 2, "query": groupBy}, http.StatusInternalServerError, "internal")

	// The request's own faults on the same table stay 400s.
	for name, body := range map[string]map[string]any{
		"unknown target":   {"k": 4, "l": 2, "targets": []string{"nope"}},
		"empty match":      {"k": 4, "l": 2, "query": map[string]any{"where": []map[string]any{{"col": "num", "op": "missing"}}}},
		"unknown group-by": {"k": 4, "l": 2, "query": map[string]any{"group_by": []string{"nope"}, "aggs": []map[string]any{{"func": "count"}}}},
	} {
		if env, _ := wantEnvelope(t, "POST", srv.URL+"/v1/tables/cells/select", body, http.StatusBadRequest, "bad_request"); env.Message == "" {
			t.Fatalf("%s: empty 400 message", name)
		}
	}

	// A coordinator whose only peer is gone.
	const name = "t"
	coordDir, _ := splitCacheDir(t, name, 1200, 3, []int{1, 2})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coord := NewService(NewStore(StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		PrepareModel: func(n string, m *core.Model) error {
			sampler, err := NewShardSampler(n, m, ShardPeersOptions{Peers: []string{dead.URL}, Retries: -1})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	}), testOptions())
	_, err = coord.Select(name, core.ExploreSpec{K: 4, L: 2, Scale: scaleForce()})
	if err == nil || errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "scatter/gather sampling") {
		t.Fatalf("select with a dead peer: %v; want the scatter failure, not a bad request", err)
	}
	csrv := httptest.NewServer(NewHandler(coord, nil))
	t.Cleanup(csrv.Close)
	body := map[string]any{"k": 4, "l": 2, "scale": map[string]any{"threshold": 1, "sample_budget": 400}}
	env, _ = wantEnvelope(t, "POST", csrv.URL+"/v1/tables/"+name+"/select", body, http.StatusInternalServerError, "internal")
	if !strings.Contains(env.Message, fmt.Sprintf("sampling shard 1 of %q", name)) {
		t.Fatalf("500 envelope %q does not name the failed shard fetch", env.Message)
	}
	// What the coordinator cannot serve at all is still a refusal.
	wantEnvelope(t, "POST", csrv.URL+"/v1/tables/"+name+"/select", map[string]any{"k": 4, "l": 2}, http.StatusBadRequest, "bad_request")
	wantEnvelope(t, "POST", csrv.URL+"/v1/sessions", map[string]any{"table": name}, http.StatusBadRequest, "bad_request")
}
