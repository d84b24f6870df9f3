package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"subtab/internal/core"
	"subtab/internal/table"
)

// fingerprints renders table "t"'s exact and scaled displays on svc.
func fingerprints(t *testing.T, svc *Service) []string {
	t.Helper()
	return displays(t, func(spec core.ExploreSpec) (*core.SubTable, error) { return svc.Select("t", spec) })
}

// displays renders the exact and scaled displays that sel selects; with a
// resident model's SelectExplore they are the reference a served table's
// fingerprints are compared with.
func displays(t *testing.T, sel func(core.ExploreSpec) (*core.SubTable, error)) []string {
	t.Helper()
	var out []string
	for _, scale := range []*core.ScaleOptions{nil, scaleForce()} {
		st, err := sel(core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, subTableFingerprint(st))
	}
	return out
}

// assertServes fails unless svc, and a service restarted on dir, both
// serve table "t" with the given displays.
func assertServes(t *testing.T, svc *Service, dir string, want []string, when string) {
	t.Helper()
	restarted := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	for name, s := range map[string]*Service{"live": svc, "restarted": restarted} {
		if got := fingerprints(t, s); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("%s: the %s service serves another table than the one before:\n got %v\nwant %v", when, name, got, want)
		}
	}
}

// TestFailedCommitsKeepPagedTable fails a paged table's replace, and then
// its append, at the commit of the new model file. Each time the old
// table stays whole: the live service and one restarted on the same
// directory select byte-identically to it, and only its one file is left.
func TestFailedCommitsKeepPagedTable(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTable("t", testTable("t", 900, 7), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	want := fingerprints(t, svc)
	failCommits(t)

	if _, err := svc.AddTable("t", testTable("t", 900, 9), nil, Unsharded, true); !isInjected(err) {
		t.Fatalf("replace: err = %v, want the injected commit failure", err)
	}
	assertServes(t, svc, dir, want, "failed replace")
	if _, _, err := svc.AppendRows("t", testTable("t", 40, 8), core.AppendOptions{}); !isInjected(err) {
		t.Fatalf("append: err = %v, want the injected commit failure", err)
	}
	assertServes(t, svc, dir, want, "failed append")
	if got := dirFiles(t, dir); len(got) != 1 || got[0] != svc.Store().path("t") {
		t.Fatalf("after the failed commits the cache dir holds %v, want only the model file", got)
	}
}

// TestUnsyncedCommitStands: a replace, and then an append, of a paged
// table whose directory sync fails after the rename are committed. The
// live service and one restarted on the same directory both serve the new
// table, and the served model's stores name the model file, not the temp
// file the commit wrote.
func TestUnsyncedCommitStands(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTable("t", testTable("t", 300, 7), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	ref := residentModel(t, testTable("t", 300, 9))
	unsyncedCommits(t)
	if _, err := svc.AddTable("t", testTable("t", 300, 9), nil, Unsharded, true); err != nil {
		t.Fatalf("replace: %v", err)
	}
	assertServes(t, svc, dir, displays(t, ref.SelectExplore), "unsynced replace")
	if _, _, err := svc.AppendRows("t", testTable("t", 40, 8), core.AppendOptions{}); err != nil {
		t.Fatalf("append: %v", err)
	}
	ref, _, err := ref.Append(testTable("t", 40, 8), core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertServes(t, svc, dir, displays(t, ref.SelectExplore), "unsynced append")
	assertLayoutFiles(t, svc, dir, Unsharded, "unsynced append")
	src, ok := mustModel(t, svc).B.Source().(interface{ Path() string })
	if !ok || src.Path() != svc.Store().path("t") {
		t.Fatalf("the served paged model reads codes from %v, want the model file %s", src, svc.Store().path("t"))
	}
}

func isInjected(err error) bool {
	return err != nil && strings.Contains(err.Error(), "injected commit failure")
}

// TestCommitTempFilesAreSwept: a commit writes its temp file under the
// table's hex prefix, so what a crashed write leaves behind is swept by
// the next replace or remove of the name.
func TestCommitTempFilesAreSwept(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	if _, err := svc.AddTable("t", testTable("t", 300, 7), nil, Unsharded, false); err != nil {
		t.Fatal(err)
	}
	seen, restore := failCommits(t)
	if _, err := svc.AddTable("t", testTable("t", 300, 9), nil, Unsharded, true); err == nil {
		t.Fatal("a replace whose commit failed reported success")
	}
	restore()
	if len(*seen) != 1 || !strings.HasPrefix(filepath.Base((*seen)[0]), hex.EncodeToString([]byte("t"))+".") {
		t.Fatalf("commit temp files %v, want one under the table's hex prefix", *seen)
	}
	crashed := (*seen)[0]
	for _, step := range []func(){
		func() {
			if _, err := svc.AddTable("t", testTable("t", 300, 9), nil, Unsharded, true); err != nil {
				t.Fatal(err)
			}
		},
		func() { svc.RemoveTable("t") },
	} {
		// What a write killed between its sync and its rename leaves.
		if err := os.WriteFile(crashed, []byte("partial model"), 0o644); err != nil {
			t.Fatal(err)
		}
		step()
		if _, err := os.Stat(crashed); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a crashed write's temp file survived the next replace or remove: %v", err)
		}
	}
	if left := dirFiles(t, dir); len(left) != 0 {
		t.Fatalf("RemoveTable left files behind: %v", left)
	}
}

// TestPagedModelMappingLifetime: one mapping of its model file serves a
// paged table, and evicting the table, removing it, or failing to load it
// leaves no mapping of the file behind.
func TestPagedModelMappingLifetime(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/maps"); err != nil {
		t.Skip("needs /proc/self/maps to see the process's mappings")
	}
	dir := t.TempDir()
	store := NewStore(StoreOptions{Dir: dir, MaxModels: 1})
	svc := NewService(store, testOptions())
	for _, name := range []string{"a", "b"} {
		if _, err := svc.AddTable(name, testTable(name, 300, 7), nil, Unsharded, false); err != nil {
			t.Fatal(err)
		}
	}
	// MaxModels 1: adding "b" evicted "a".
	awaitUnmapped(t, store.path("a"))
	if n := bytes.Count(procMaps(t), []byte(store.path("b"))); n != 1 {
		t.Fatalf("the served paged table's file is mapped %d times, want once", n)
	}
	svc.RemoveTable("b")
	awaitUnmapped(t, store.path("b"))

	// A paged model file whose codes image is damaged fails to load.
	raw, err := os.ReadFile(store.path("a"))
	if err != nil {
		t.Fatal(err)
	}
	raw[bytes.Index(raw, []byte("SUBTABCE"))] ^= 0x40
	if err := os.WriteFile(store.path("c"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Model("c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("loading a damaged model file: err = %v, want ErrNotFound", err)
	}
	if bytes.Contains(procMaps(t), []byte(store.path("c"))) {
		t.Fatal("a model file that failed to load is still mapped")
	}
}

func procMaps(t *testing.T) []byte {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return maps
}

// awaitUnmapped collects garbage until path is no longer mapped into this
// process, failing after a generous number of rounds.
func awaitUnmapped(t *testing.T, path string) {
	t.Helper()
	for range 100 {
		runtime.GC()
		if !bytes.Contains(procMaps(t), []byte(path)) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s is still mapped after its model left the store", path)
}

// TestAddTableWithoutColumns: a table without columns is a typed refusal
// that HTTP answers with 400, not a model no file format can hold.
func TestAddTableWithoutColumns(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	_, err := svc.AddTable("e", table.New("e"), nil, Unsharded, false)
	if !errors.Is(err, core.ErrNoColumns) {
		t.Fatalf("err = %v, want core.ErrNoColumns", err)
	}
	rec := httptest.NewRecorder()
	writeError(rec, err)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

// TestUnloadableModelFileIsReplaced restarts into a cache directory whose
// table "t" is a model file this build cannot load, with store files of
// the name beside it: the format 8 files a paged table was left as
// (testdata/v8cache: a model husk plus its .codes and .cols files), or a
// truncated model file of a 2-shard table. The name is free: select
// answers 404, an upload without replace answers 201, and the directory
// then holds the new table's one file, which serves. DELETE of such a
// name still removes all its files.
func TestUnloadableModelFileIsReplaced(t *testing.T) {
	for _, c := range []struct {
		name string
		fill func(t *testing.T, dir string)
	}{
		{"v8", func(t *testing.T, dir string) {
			entries, err := os.ReadDir("testdata/v8cache")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				raw, err := os.ReadFile(filepath.Join("testdata/v8cache", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"truncated", func(t *testing.T, dir string) {
			s := NewStore(StoreOptions{Dir: dir})
			if _, err := NewService(s, testOptions()).AddTable("t", testTable("t", 300, 7), nil, Shards(2), false); err != nil {
				t.Fatal(err)
			}
			if err := truncateFile(s.path("t"), 64); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.fill(t, dir)
			if files := dirFiles(t, dir); len(files) < 3 {
				t.Fatalf("the cache dir holds %v, want a model file and its store files", files)
			}
			svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
			srv := httptest.NewServer(NewHandler(svc, nil))
			defer srv.Close()
			wantEnvelope(t, "POST", srv.URL+"/v1/tables/t/select", map[string]any{"k": 3, "l": 2}, http.StatusNotFound, "not_found")
			resp, err := http.Post(srv.URL+"/tables?name=t&workers=1", "text/csv", strings.NewReader(testCSV(120)))
			if err != nil {
				t.Fatal(err)
			}
			decodeBodyMap(t, resp, http.StatusCreated)
			assertLayoutFiles(t, svc, dir, Unsharded, "upload")
			doJSON(t, "POST", srv.URL+"/v1/tables/t/select", map[string]any{"k": 3, "l": 2}, http.StatusOK, nil)

			gone := t.TempDir()
			c.fill(t, gone)
			del := httptest.NewServer(NewHandler(NewService(NewStore(StoreOptions{Dir: gone}), testOptions()), nil))
			defer del.Close()
			doJSON(t, "DELETE", del.URL+"/tables/t", nil, http.StatusOK, nil)
			if files := dirFiles(t, gone); len(files) != 0 {
				t.Fatalf("DELETE left %v", files)
			}
		})
	}
}
