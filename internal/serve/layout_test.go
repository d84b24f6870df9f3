package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"subtab/internal/core"
)

// TestLayoutLifecycle takes one table through its whole life in each
// layout: upload, exact and scaled selects, append, restart on the same
// cache directory, replace by the next layout, remove. Every select must
// render exactly what the resident model of the same rows renders (built
// by core.Preprocess and core.Model.Append), the directory must hold
// exactly the files of the current layout after each step — the model
// file alone for an unsharded table — and removal must leave it empty.
// Every table on the store is out of core. The "resident" case
// is the unsharded layout, which holds the whole table in its one model
// file; the "pair" case is one shard, a code and a cell file beside it.
func TestLayoutLifecycle(t *testing.T) {
	layouts := []Layout{Unsharded, Shards(1), Shards(3)}
	for i, l := range layouts {
		next := layouts[(i+1)%len(layouts)]
		t.Run([]string{"resident", "pair", "3-shards"}[i], func(t *testing.T) {
			dir := t.TempDir()
			svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
			var ref *core.Model
			add := func(svc *Service, l Layout, seed int64, replace bool) {
				t.Helper()
				m, err := svc.AddTable("t", testTable("t", 2500, seed), nil, l, replace)
				if err != nil {
					t.Fatal(err)
				}
				if got := layoutOf(m); got != l {
					t.Fatalf("added in layout %d, serving in %d", l, got)
				}
				ref = residentModel(t, testTable("t", 2500, seed))
			}
			same := func(svc *Service, when string) {
				t.Helper()
				got, want := fingerprints(t, svc), displays(t, ref.SelectExplore)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: layout %d diverged from the resident model:\n got %v\nwant %v", when, l, got, want)
				}
			}
			files := func(svc *Service, l Layout, when string) {
				t.Helper()
				assertLayoutFiles(t, svc, dir, l, when)
			}

			add(svc, l, 7, false)
			files(svc, l, "upload")
			info, err := svc.Info("t")
			if err != nil {
				t.Fatal(err)
			}
			if !info.OutOfCore || info.Shards != max(int(l), 0) || info.LocalShards != info.Shards {
				t.Fatalf("info = %+v for layout %d", info, l)
			}
			same(svc, "upload")
			if _, _, err := svc.Rules("t", rulesOptionsForTest()); err != nil {
				t.Fatal(err)
			}

			m, stats, err := svc.AppendRows("t", testTable("t", 12, 8), core.AppendOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.AppendedRows != 12 || m.T.NumRows() != 2512 {
				t.Fatalf("append: %d rows appended, %d total", stats.AppendedRows, m.T.NumRows())
			}
			if ref, _, err = ref.Append(testTable("t", 12, 8), core.AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			if m := mustModel(t, svc); layoutOf(m) != l {
				t.Fatalf("append moved the table from layout %d to %d", l, layoutOf(m))
			}
			files(svc, l, "append")
			same(svc, "append")

			restarted := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
			if m := mustModel(t, restarted); layoutOf(m) != l || m.T.NumRows() != 2512 {
				t.Fatalf("restart: layout %d with %d rows, want %d with 2512", layoutOf(m), m.T.NumRows(), l)
			}
			same(restarted, "restart")
			files(restarted, l, "restart")

			add(restarted, next, 9, true)
			files(restarted, next, "replace")
			same(restarted, "replace")

			restarted.RemoveTable("t")
			if left := dirFiles(t, dir); len(left) != 0 {
				t.Fatalf("RemoveTable left files behind: %v", left)
			}
		})
	}
}

// TestConcurrentReplacesKeepOneLayout races replaces of one name in four
// layouts. They serialize on the name lock, so whichever lands last, the
// cache directory holds exactly its files and a restart serves its
// selections.
func TestConcurrentReplacesKeepOneLayout(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(NewStore(StoreOptions{Dir: dir}), testOptions())
	var wg sync.WaitGroup
	for i, l := range []Layout{Unsharded, Shards(1), Shards(2), Shards(3)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.AddTable("t", testTable("t", 600, int64(i)), nil, l, true); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := mustModel(t, svc)
	assertLayoutFiles(t, svc, dir, layoutOf(m), "after the race")
	restarted := mustModel(t, NewService(NewStore(StoreOptions{Dir: dir}), testOptions()))
	for _, scale := range []*core.ScaleOptions{nil, scaleForce()} {
		want, err := m.SelectExplore(core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		got, err := restarted.SelectExplore(core.ExploreSpec{K: 6, L: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if subTableFingerprint(got) != subTableFingerprint(want) {
			t.Fatalf("restart serves another table than the last replace (scale=%v)", scale)
		}
	}
}

// assertLayoutFiles fails unless dir holds exactly the files of table "t"
// in layout l: its model file, plus a code and a cell file per shard.
func assertLayoutFiles(t *testing.T, svc *Service, dir string, l Layout, when string) {
	t.Helper()
	got, want := dirFiles(t, dir), layoutFiles(svc, l)
	if len(want) != 1+2*max(int(l), 0) {
		t.Fatalf("%s: layout %d keeps %v, want the model file and two files per shard", when, l, want)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: cache dir holds %v, want the files of layout %d: %v", when, got, l, want)
	}
}

// layoutFiles lists, sorted, the model file and the store files of table
// "t" in layout l.
func layoutFiles(svc *Service, l Layout) []string {
	codes, cells := svc.Store().layoutPaths("t", l)
	files := append(slices.Concat(codes, cells), svc.Store().path("t"))
	slices.Sort(files)
	return files
}

// dirFiles lists, sorted, the paths of the files in dir.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func mustModel(t *testing.T, svc *Service) *core.Model {
	t.Helper()
	m, err := svc.Model("t")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHTTPShardsBound pins the bound on the shards upload knob: more shards
// than rows, or more than maxShards, is a typed 400 before any file is
// written.
func TestHTTPShardsBound(t *testing.T) {
	dir := t.TempDir()
	srv := httptest.NewServer(NewHandler(NewService(NewStore(StoreOptions{Dir: dir}), testOptions()), nil))
	t.Cleanup(srv.Close)
	for _, shards := range []int{101, 5000, maxShards + 1, 1 << 40} {
		url := fmt.Sprintf("%s/tables?name=t&shards=%d&workers=1", srv.URL, shards)
		resp, err := http.Post(url, "text/csv", strings.NewReader(testCSV(100)))
		if err != nil {
			t.Fatal(err)
		}
		env := decodeBodyMap(t, resp, http.StatusBadRequest)
		if env["code"] != "bad_request" || env["message"] == "" {
			t.Fatalf("shards=%d: envelope %v, want a bad_request with a message", shards, env)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("shards=%d: rejected upload wrote %d files", shards, len(left))
		}
	}
	// As many shards as rows is fine.
	resp, err := http.Post(srv.URL+"/tables?name=t&shards=100&workers=1", "text/csv", strings.NewReader(testCSV(100)))
	if err != nil {
		t.Fatal(err)
	}
	decodeBodyMap(t, resp, http.StatusCreated)
}
