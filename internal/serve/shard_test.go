// Serving-layer tests for sharded tables (their whole life in one layout is
// TestLayoutLifecycle's): a coordinator holding some shards must reproduce
// the same selections by sampling the rest from a peer instance, the worker
// endpoint validates its requests, and the shards upload knob is bounded.
package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/shard"
)

// splitCacheDir builds a sharded table in its own cache dir, then moves
// the shards listed in remote (plus a copy of the model file) into a
// second dir — simulating two instances that each own part of the table.
func splitCacheDir(t *testing.T, name string, rows int, shards int, remote []int) (coordDir, workerDir string) {
	t.Helper()
	coordDir, workerDir = t.TempDir(), t.TempDir()
	build := NewService(NewStore(StoreOptions{Dir: coordDir}), testOptions())
	if _, err := build.AddTable(name, testTable(name, rows, 7), nil, Shards(shards), false); err != nil {
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
	paths, _ := build.Store().layoutPaths(name, Shards(shards))
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
// resident model of the whole table serves.
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

	want, err := residentModel(t, testTable(name, 2500, 7)).SelectExplore(core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
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
	m, err := svc.AddTable("sh", testTable("sh", 600, 3), nil, Shards(2), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddTable("plain", testTable("plain", 200, 3), nil, Unsharded, false); err != nil {
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

	// shards=0 is rejected.
	resp, err = http.Post(srv.URL+"/tables?name=z&shards=0", "text/csv", strings.NewReader(testCSV(60)))
	if err != nil {
		t.Fatal(err)
	}
	decodeBodyMap(t, resp, http.StatusBadRequest)
}

// TestGetRefusesDamagedShardPage: a byte flipped inside a middle data page
// of a sharded table's shard file — a column shard or a code shard — is
// found when the table loads: a restarted store's Get fails with
// blockfile.ErrCorrupt in its chain instead of serving the damaged page,
// as an unsharded table's model file does (TestGetRefusesDamagedPage). A
// store that allows missing shards checks the shards it holds.
func TestGetRefusesDamagedShardPage(t *testing.T) {
	for _, tc := range []struct {
		what  string
		shard int
		cells bool
	}{{"cols.000", 0, true}, {"codes.001", 1, false}} {
		t.Run(tc.what, func(t *testing.T) {
			dir := t.TempDir()
			svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
			if _, err := svc.AddTable("t", testTable("t", 900, 7), nil, Shards(2), false); err != nil {
				t.Fatal(err)
			}
			codes, cells := svc.Store().layoutPaths("t", Shards(2))
			damaged := codes[tc.shard]
			if tc.cells {
				damaged = cells[tc.shard]
			}
			flipMiddlePage(t, damaged, tc.cells)
			if _, err := NewStore(StoreOptions{Dir: dir}).Get("t"); !errors.Is(err, blockfile.ErrCorrupt) {
				t.Fatalf("Get of a table with a damaged %s page: err = %v, want ErrCorrupt", tc.what, err)
			}
			other := 1 - tc.shard
			for _, p := range []string{codes[other], cells[other]} {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := NewStore(StoreOptions{Dir: dir, AllowMissingShards: true}).Get("t"); !errors.Is(err, blockfile.ErrCorrupt) {
				t.Fatalf("Get of the damaged shard alone, missing shards allowed: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// flipMiddlePage flips one byte of the middle page of the store file at
// path, a column store or a code store: the middle column's page in the
// middle block.
func flipMiddlePage(t *testing.T, path string, cells bool) {
	t.Helper()
	var f *blockfile.File
	if cells {
		st, err := colstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f = st.File
	} else {
		st, err := codestore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f = st.File
	}
	at := f.Off(f.NumCols()/2, f.NumBlocks()/2)
	f.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[at] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
