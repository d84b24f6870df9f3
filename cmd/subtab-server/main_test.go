package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subtab"
	"subtab/internal/serve"
	"subtab/internal/word2vec"
)

// TestPreloadReplacesUnloadableModel pins the preload rule: a name whose
// model file loads is served from it, and a name whose model file does not
// load — here a truncated one — is pre-processed again from its CSV and
// written over, instead of being logged as cached and then answering 404.
func TestPreloadReplacesUnloadableModel(t *testing.T) {
	dir := t.TempDir()
	var csv strings.Builder
	csv.WriteString("amount,status\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "%d,%s\n", i%50, []string{"ok", "late", "failed"}[i%3])
	}
	csvPath := filepath.Join(dir, "pay.csv")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
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
