// Serving-layer tests for sharded tables: sharded uploads must serve
// bit-identically to in-memory models, survive disk reloads, clean up
// every shard file on removal, keep their sharding across appends, and —
// the HTTP lift — a coordinator holding some shards must reproduce the
// same selections by sampling the rest from a peer instance.
package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subtab/internal/core"
	"subtab/internal/shard"
)

func TestAddTableShardedServesIdentically(t *testing.T) {
	dir := t.TempDir()
	svcSh := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	svcMem := NewService(NewStore(StoreOptions{}), testOptions())
	m, err := svcSh.AddTableSharded("t", testTable("t", 2500, 7), nil, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if src := m.ShardSource(); src == nil || src.NumShards() != 3 || !src.Complete() {
		t.Fatalf("sharded add produced source %+v", m.ShardSource())
	}
	if _, err := svcMem.AddTable("t", testTable("t", 2500, 7), nil, false); err != nil {
		t.Fatal(err)
	}

	paths, err := svcSh.Store().ShardPaths("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("shard file missing: %v", err)
		}
	}
	info, err := svcSh.Info("t")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 3 || info.LocalShards != 3 {
		t.Fatalf("info = %+v, want 3/3 shards", info)
	}

	// Exact and scaled selects both match the in-memory twin.
	for _, scale := range []*core.ScaleOptions{nil, scaleForce()} {
		want, err := svcMem.Select("t", core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svcSh.Select("t", core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if subTableFingerprint(got) != subTableFingerprint(want) {
			t.Fatalf("sharded serve diverged (scale=%v)", scale)
		}
	}

	// A fresh service over the same cache dir reloads the sharded model
	// from disk (modelio v6) and serves the same scaled selections.
	svcReload := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m2, err := svcReload.Model("t")
	if err != nil {
		t.Fatal(err)
	}
	if src := m2.ShardSource(); src == nil || !src.Complete() {
		t.Fatal("disk reload lost the shard backing")
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
		t.Fatal("reloaded sharded model serves different selections")
	}

	// RemoveTable deletes the model, every shard file and the sidecar map.
	svcSh.RemoveTable("t")
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("RemoveTable left files behind: %v", left)
	}
}

// TestShardedAppendKeepsSharded pins that appending to a sharded table
// re-exports into the same shard count instead of regressing to inline
// codes, and that the result survives a disk reload.
func TestShardedAppendKeepsSharded(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTableSharded("t", testTable("t", 1200, 7), nil, 3, false); err != nil {
		t.Fatal(err)
	}
	next, stats, err := svc.AppendRows("t", testTable("t", 12, 8), core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.AppendedRows != 12 {
		t.Fatalf("appended %d rows, want 12", stats.AppendedRows)
	}
	src := next.ShardSource()
	if src == nil || src.NumShards() != 3 || src.NumRows() != 1212 {
		t.Fatalf("append changed the sharding: %+v", src)
	}
	if _, err := next.SelectExplore(core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()}); err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m, err := svc2.Model("t")
	if err != nil {
		t.Fatal(err)
	}
	if m.T.NumRows() != 1212 || m.ShardSource() == nil {
		t.Fatalf("reload: %d rows, sharded=%v; want 1212, true", m.T.NumRows(), m.ShardSource() != nil)
	}
}

// splitCacheDir builds a sharded table in its own cache dir, then moves
// the shards listed in remote (plus a copy of the model file) into a
// second dir — simulating two instances that each own part of the table.
func splitCacheDir(t *testing.T, name string, rows int, shards int, remote []int) (coordDir, workerDir string) {
	t.Helper()
	coordDir, workerDir = t.TempDir(), t.TempDir()
	build := NewService(NewStore(StoreOptions{Dir: coordDir}), testOptions())
	if _, err := build.AddTableSharded(name, testTable(name, rows, 7), nil, shards, false); err != nil {
		t.Fatal(err)
	}
	models, err := filepath.Glob(filepath.Join(coordDir, "*"+".subtab"))
	if err != nil || len(models) != 1 {
		t.Fatalf("model file glob: %v %v", models, err)
	}
	raw, err := os.ReadFile(models[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(workerDir, filepath.Base(models[0])), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := build.Store().ShardPaths(name, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range remote {
		dst := filepath.Join(workerDir, filepath.Base(paths[i]))
		if err := os.Rename(paths[i], dst); err != nil {
			t.Fatal(err)
		}
	}
	return coordDir, workerDir
}

// TestShardedCoordinatorHTTP is the protocol end to end over a real HTTP
// round trip: a coordinator holding shard 0 and a worker holding shards 1
// and 2 of one logical table must together serve exactly the selection an
// in-memory model of the whole table serves.
func TestShardedCoordinatorHTTP(t *testing.T) {
	const name = "t"
	coordDir, workerDir := splitCacheDir(t, name, 2500, 3, []int{1, 2})

	worker := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), testOptions())
	wm, err := worker.Model(name)
	if err != nil {
		t.Fatal(err)
	}
	if src := wm.ShardSource(); src.Complete() || !src.ShardAvailable(1) || !src.ShardAvailable(2) {
		t.Fatalf("worker owns the wrong shards: %+v", src)
	}
	srv := httptest.NewServer(NewHandler(worker, nil))
	t.Cleanup(srv.Close)

	coord := NewService(NewStore(StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		PrepareModel: func(n string, m *core.Model) error {
			if m.ShardSource() == nil || m.ShardSource().Complete() {
				return nil
			}
			sampler, err := NewShardSampler(n, m, ShardPeersOptions{Peers: []string{srv.URL}})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	}), testOptions())

	svcMem := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svcMem.AddTable(name, testTable(name, 2500, 7), nil, false); err != nil {
		t.Fatal(err)
	}
	want, err := svcMem.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	if subTableFingerprint(got) != subTableFingerprint(want) {
		t.Fatalf("HTTP scatter/gather diverged:\n got %s\nwant %s",
			subTableFingerprint(got), subTableFingerprint(want))
	}

	// Repeat select (cache hit on the coordinator) stays identical.
	again, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	if subTableFingerprint(again) != subTableFingerprint(want) {
		t.Fatal("repeat coordinator select diverged")
	}

	// Partial models refuse what needs all rows locally: exact selection,
	// rule mining, appends.
	if _, err := coord.Select(name, core.ExploreSpec{K: 6, L: 3}); err == nil {
		t.Fatal("exact select succeeded on a partial model")
	}
	if _, _, err := coord.Rules(name, rulesOptionsForTest()); err == nil {
		t.Fatal("rule mining succeeded on a coordinator with remote shards")
	}
	if _, _, err := coord.AppendRows(name, testTable(name, 5, 9), core.AppendOptions{}); err == nil {
		t.Fatal("append succeeded on a coordinator with remote shards")
	}
}

// TestShardSampleEndpointValidation drives the worker endpoint's failure
// modes straight through the HTTP layer.
func TestShardSampleEndpointValidation(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	m, err := svc.AddTableSharded("sh", testTable("sh", 600, 3), nil, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddTable("plain", testTable("plain", 200, 3), nil, false); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)

	goodReq := &shard.SampleRequest{
		Checksum: m.ShardSource().Desc(0).Checksum,
		Seed:     m.SampleSeed(),
		Budget:   50,
		Cols:     []int{0, 1, 2},
	}
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The happy path round-trips the codec.
	resp := post("/shards/sh/0/sample", goodReq.Marshal())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good request: status %d", resp.StatusCode)
	}
	raw := readAllBody(t, resp)
	sresp, err := shard.UnmarshalSampleResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(sresp.Rows) == 0 || len(sresp.Codes) != 3 {
		t.Fatalf("sample response: %d rows, %d code cols", len(sresp.Rows), len(sresp.Codes))
	}

	for _, c := range []struct {
		what string
		path string
		body []byte
		want int
	}{
		{"checksum mismatch", "/shards/sh/0/sample", (&shard.SampleRequest{Checksum: goodReq.Checksum + 1, Seed: goodReq.Seed, Budget: 50, Cols: goodReq.Cols}).Marshal(), http.StatusBadRequest},
		{"shard out of range", "/shards/sh/9/sample", goodReq.Marshal(), http.StatusBadRequest},
		{"bad index", "/shards/sh/x/sample", goodReq.Marshal(), http.StatusBadRequest},
		{"unsharded table", "/shards/plain/0/sample", goodReq.Marshal(), http.StatusBadRequest},
		{"unknown table", "/shards/nope/0/sample", goodReq.Marshal(), http.StatusNotFound},
		{"corrupt body", "/shards/sh/0/sample", []byte("garbage"), http.StatusBadRequest},
	} {
		resp := post(c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.what, resp.StatusCode, c.want)
		}
	}
}

func readAllBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPShardedUpload drives the shards=N upload knob.
func TestHTTPShardedUpload(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/tables?name=sh&shards=4&seed=4&workers=1", "text/csv", strings.NewReader(testCSV(600)))
	if err != nil {
		t.Fatal(err)
	}
	created := decodeBodyMap(t, resp, http.StatusCreated)
	if created["out_of_core"] != true {
		t.Fatalf("upload response = %v, want out_of_core=true", created)
	}
	var info TableInfo
	doJSON(t, "GET", srv.URL+"/tables/sh", nil, http.StatusOK, &info)
	if info.Shards != 4 || info.LocalShards != 4 {
		t.Fatalf("info = %+v, want 4/4 shards", info)
	}

	// shards=0 is rejected; memory-only stores cannot shard.
	resp, err = http.Post(srv.URL+"/tables?name=z&shards=0", "text/csv", strings.NewReader(testCSV(60)))
	if err != nil {
		t.Fatal(err)
	}
	decodeBodyMap(t, resp, http.StatusBadRequest)
	memSrv := httptest.NewServer(NewHandler(NewService(NewStore(StoreOptions{}), testOptions()), nil))
	t.Cleanup(memSrv.Close)
	resp, err = http.Post(memSrv.URL+"/tables?name=z&shards=2&workers=1", "text/csv", strings.NewReader(testCSV(60)))
	if err != nil {
		t.Fatal(err)
	}
	decodeBodyMap(t, resp, http.StatusBadRequest)
}
