package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"subtab"
	"subtab/internal/datagen"
	"subtab/internal/serve"
	"subtab/internal/word2vec"
)

// writePayCSV writes a small two-column CSV into dir and returns its path.
func writePayCSV(t *testing.T, dir string) string {
	t.Helper()
	var csv strings.Builder
	csv.WriteString("amount,status\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "%d,%s\n", i%50, []string{"ok", "late", "failed"}[i%3])
	}
	path := filepath.Join(dir, "pay.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPreloadReplacesUnloadableModel pins the preload rule: a name whose
// model file loads is served from it, and a name whose model file does not
// load — here a truncated one — is pre-processed again from its CSV and
// written over, instead of being logged as cached and then answering 404.
func TestPreloadReplacesUnloadableModel(t *testing.T) {
	dir := t.TempDir()
	csvPath := writePayCSV(t, dir)
	opt := subtab.DefaultOptions()
	opt.Embedding = word2vec.Options{Dim: 8, Epochs: 1, Seed: 1}
	cache := filepath.Join(dir, "cache")
	start := func() (*serve.Service, *serve.Store) {
		store := serve.NewStore(serve.StoreOptions{Dir: cache})
		svc := serve.NewService(store, opt)
		if err := preloadTables(svc, []string{"pay=" + csvPath}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Model("pay"); err != nil {
			t.Fatalf("after preload: %v", err)
		}
		return svc, store
	}

	_, store := start()
	if got := store.Stats().Builds; got != 1 {
		t.Fatalf("first preload ran %d builds, want 1", got)
	}
	// A restart over a model file that loads builds nothing.
	if _, store = start(); store.Stats().Builds != 0 {
		t.Fatalf("preload over a cached table ran %d builds, want 0", store.Stats().Builds)
	}

	models, err := filepath.Glob(filepath.Join(cache, "*.subtab"))
	if err != nil || len(models) != 1 {
		t.Fatalf("model files: %v %v", models, err)
	}
	info, err := os.Stat(models[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(models[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, store = start(); store.Stats().Builds != 1 {
		t.Fatalf("preload over a truncated model file ran %d builds, want 1", store.Stats().Builds)
	}
	if after, err := os.Stat(models[0]); err != nil || after.Size() != info.Size() {
		t.Fatalf("the truncated model file was not written over: %v", err)
	}
}

// TestPrivateCacheDirLifecycle runs the server without -cache-dir: it
// serves a preloaded table from a private directory under $TMPDIR, and a
// SIGTERM drains it and removes that directory.
func TestPrivateCacheDirLifecycle(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	csvPath := writePayCSV(t, t.TempDir())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	done := make(chan error, 1)
	go func() {
		done <- run(addr, "", 0, 1, limitsConfig{}, 5*time.Second, false, shardConfig{}, []string{"pay=" + csvPath})
	}()
	deadline := time.Now().Add(30 * time.Second)
	for up := false; !up; {
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the server did not serve the preloaded table within 30s")
		}
		if resp, err := http.Get("http://" + addr + "/tables/pay"); err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
	}
	dirs, err := filepath.Glob(filepath.Join(tmp, "subtab-server-*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("private cache directories under $TMPDIR: %v %v, want one", dirs, err)
	}
	if models, _ := filepath.Glob(filepath.Join(dirs[0], "*.subtab")); len(models) != 1 {
		t.Fatalf("the private directory holds model files %v while serving, want the preloaded table's", models)
	}

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not shut down after SIGTERM")
	}
	if _, err := os.Stat(dirs[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the private cache directory outlived the shutdown: %v", err)
	}
}

// TestPrivateStoreKeepsBudget streams tables into the store the server
// builds without -cache-dir, under a governor with admission on: each
// table is added and then selected once. A store that held every model in
// memory outgrew the budget and refused selects; this one maps each table
// from its file and evicts cold models, so its governor's peak stays within
// the budget and no select is refused. Ten 2,000-row FL tables under a
// 2.5 MiB budget take about 2 s on a 2-vCPU machine (20 s under -race).
func TestPrivateStoreKeepsBudget(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	const budget = 5 << 19 // 2.5 MiB
	svc, _, err := newService("", serve.DefaultMaxModels, 1, limitsConfig{memoryBudget: budget}, shardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		ds, err := datagen.ByName("FL", 2000, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("fl%d", i)
		if _, err := svc.AddTable(name, ds.T, nil, serve.Unsharded, false); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Select(name, subtab.ExploreSpec{K: 10, L: 10}); err != nil {
			t.Fatalf("select on table %d of 10: %v", i, err)
		}
	}
	peak := svc.Governor().Peak()
	if peak > budget {
		t.Fatalf("the governor peaked at %d bytes, over its %d-byte budget", peak, budget)
	}
	t.Logf("governor peak %d of %d bytes, %d evictions", peak, budget, svc.Store().Stats().Evictions)
}
