package subtab_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"subtab"
	"subtab/internal/core"
	"subtab/internal/serve"
)

// TestGoldenFingerprintsPagedColumns pins the paged raw-column path against
// the *existing* golden files: a model whose codes and displayed columns
// were paged out to mmap'd stores (inline copies dropped, views gathered
// block by block) must reproduce the exact-path fingerprints and the
// large-mode fingerprints byte for byte. This test never records: it
// reuses the files the in-memory golden tests own, so a divergence in the
// paged render path cannot hide behind a re-recording.
func TestGoldenFingerprintsPagedColumns(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()

			// Exact selection path.
			model := goldenModel(t, name, goldenConfig())
			if err := model.PageOut([]string{filepath.Join(dir, name+".codes")}, []string{filepath.Join(dir, name+".cols")}, false, 96); err != nil {
				t.Fatal(err)
			}
			if model.CellSource() == nil {
				t.Fatal("inline cells were not dropped")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".fingerprint"))
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
			}
			if got := goldenSelections(t, model, name, nil); got != string(want) {
				t.Errorf("paged-column exact selection diverged from the recorded golden for %s.\n"+
					"Views gathered from the column store must be byte-identical to SubTableView.\n got:\n%s\nwant:\n%s", name, got, want)
			}

			// Scaled selection path.
			ooc := goldenModel(t, name, goldenConfig())
			if err := ooc.PageOut([]string{filepath.Join(dir, name+".ooc.codes")}, []string{filepath.Join(dir, name+".ooc.cols")}, false, 96); err != nil {
				t.Fatal(err)
			}
			wantLarge, err := os.ReadFile(filepath.Join("testdata", "golden", name+".large.fingerprint"))
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
			}
			if got := goldenSelections(t, ooc, name, scale); got != string(wantLarge) {
				t.Errorf("fully paged scaled selection diverged from the recorded large-mode golden for %s.\n got:\n%s\nwant:\n%s", name, got, wantLarge)
			}
		})
	}
}

// TestGoldenLargeModeFingerprintsShardedColumns pins the sharded column
// path locally: codes and raw columns both split three ways at the same row
// cuts (800 rows at 96 rows/block keeps every cut off block alignment), so
// view assembly gathers across shard-local stores. Never-recording.
func TestGoldenLargeModeFingerprintsShardedColumns(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			model := goldenModel(t, name, goldenConfig())
			dir := t.TempDir()
			paths := make([]string, 3)
			colPaths := make([]string, 3)
			for i := range paths {
				paths[i] = filepath.Join(dir, fmt.Sprintf("%s.codes.%03d", name, i))
				colPaths[i] = filepath.Join(dir, fmt.Sprintf("%s.cols.%03d", name, i))
			}
			if err := model.PageOut(paths, colPaths, true, 96); err != nil {
				t.Fatal(err)
			}
			if model.CellSource() == nil {
				t.Fatal("inline cells were not dropped")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".large.fingerprint"))
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
			}
			if got := goldenSelections(t, model, name, scale); got != string(want) {
				t.Errorf("sharded-column scaled selection diverged from the recorded large-mode golden for %s.\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// TestGoldenPagedModelRoundTrip extends the golden guarantee across
// persistence: saving a model whose codes and raw columns are both paged
// (a schema husk plus both store images in one model file) and loading it
// back must still reproduce the recorded fingerprints.
func TestGoldenPagedModelRoundTrip(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	dir := t.TempDir()
	model := goldenModel(t, "FL", goldenConfig())
	if err := model.PageOut([]string{filepath.Join(dir, "fl.codes")}, []string{filepath.Join(dir, "fl.cols")}, false, 96); err != nil {
		t.Fatal(err)
	}
	if err := subtab.SaveModelFile(filepath.Join(dir, "fl.subtab"), model); err != nil {
		t.Fatal(err)
	}
	loaded, err := subtab.LoadModelFile(filepath.Join(dir, "fl.subtab"))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CellSource() == nil {
		t.Fatal("reloaded model should keep its cells paged")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "FL.large.fingerprint"))
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
	}
	if got := goldenSelections(t, loaded, "FL", scale); got != string(want) {
		t.Errorf("reloaded paged model diverged from the recorded large-mode golden.\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenShardedColumnsHTTPCoordinator lifts shard-local rendering over
// the wire: the coordinator owns shard 0's code and column files, the worker
// owns shards 1 and 2 — so the coordinator renders a selection by fetching
// remote rows' cells from the worker (POST /shards/{name}/{idx}/cells). The
// result must match the recorded large-mode fingerprints byte for byte.
func TestGoldenShardedColumnsHTTPCoordinator(t *testing.T) {
	const name = "FL"
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	ds, err := subtab.GenerateDataset(name, 800, 41)
	if err != nil {
		t.Fatal(err)
	}
	coordDir, workerDir := t.TempDir(), t.TempDir()
	opts := goldenConfig()

	build := serve.NewService(serve.NewStore(serve.StoreOptions{Dir: coordDir}), opts)
	built, err := build.AddTable(name, ds.T, nil, serve.Shards(3), false)
	if err != nil {
		t.Fatal(err)
	}
	// Hand shards 1 and 2 — code files AND column files — plus a copy of the
	// model file to the worker's cache dir; the coordinator keeps shard 0.
	models, err := filepath.Glob(filepath.Join(coordDir, "*.subtab"))
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
	for _, i := range []int{1, 2} {
		for _, f := range []string{built.ShardSource().Desc(i).File, built.ShardCells().Desc(i).File} {
			if err := os.Rename(filepath.Join(coordDir, f), filepath.Join(workerDir, f)); err != nil {
				t.Fatal(err)
			}
		}
	}

	worker := serve.NewService(serve.NewStore(serve.StoreOptions{Dir: workerDir, AllowMissingShards: true}), opts)
	srv := httptest.NewServer(serve.NewHandler(worker, nil))
	defer srv.Close()

	coord := serve.NewService(serve.NewStore(serve.StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		PrepareModel: func(n string, m *core.Model) error {
			if m.ShardSource() == nil || m.ShardSource().Complete() {
				return nil
			}
			sampler, err := serve.NewShardSampler(n, m, serve.ShardPeersOptions{Peers: []string{srv.URL}})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	}), opts)
	model, err := coord.Model(name)
	if err != nil {
		t.Fatal(err)
	}
	if sc := model.ShardCells(); sc == nil || sc.Complete() {
		t.Fatal("coordinator should hold a partial column shard source")
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".large.fingerprint"))
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
	}
	if got := goldenSelections(t, model, name, scale); got != string(want) {
		t.Errorf("HTTP shard-local rendering diverged from the recorded large-mode golden.\n got:\n%s\nwant:\n%s", got, want)
	}
}
