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

// TestGoldenLargeModeFingerprintsSharded pins the local scatter/gather
// path against the *existing* large-mode golden files: a model whose bin
// codes were split across three shard stores (goroutine-per-shard fan-out,
// associative merge) must reproduce `<name>.large.fingerprint` byte for
// byte. 800 rows at 96 rows/block cut three ways puts every shard
// boundary off block alignment, so the merge is exercised, not dodged.
// This test never records — it reuses the files
// TestGoldenLargeModeFingerprints owns, so a divergence in the sharded
// path cannot hide behind a re-recording.
func TestGoldenLargeModeFingerprintsSharded(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			model := goldenModel(t, name, goldenConfig())
			dir := t.TempDir()
			paths := make([]string, 3)
			for i := range paths {
				paths[i] = filepath.Join(dir, fmt.Sprintf("%s.codes.%03d", name, i))
			}
			pageOutCodes(t, model, paths...)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".large.fingerprint"))
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
			}
			if got := goldenSelections(t, model, name, scale); got != string(want) {
				t.Errorf("sharded scaled selection diverged from the recorded large-mode golden for %s.\n"+
					"The scatter/gather merge must be byte-identical to the single-store scan.\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// TestGoldenShardedHTTPCoordinator lifts the same guarantee over the
// wire: two server instances — a coordinator owning shard 0 and a worker
// owning shards 1 and 2 of one logical table — must together reproduce
// the recorded large-mode fingerprints, with the remote summaries
// fetched over real HTTP round trips. Never-recording, like above.
func TestGoldenShardedHTTPCoordinator(t *testing.T) {
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
	// Hand shards 1 and 2 (and a copy of the model file) to the worker's
	// cache dir; the coordinator keeps shard 0.
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
		f := built.ShardSource().Desc(i).File
		if err := os.Rename(filepath.Join(coordDir, f), filepath.Join(workerDir, f)); err != nil {
			t.Fatal(err)
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
	if src := model.ShardSource(); src == nil || src.Complete() {
		t.Fatal("coordinator should hold a partial shard source")
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".large.fingerprint"))
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
	}
	if got := goldenSelections(t, model, name, scale); got != string(want) {
		t.Errorf("HTTP scatter/gather selection diverged from the recorded large-mode golden.\n got:\n%s\nwant:\n%s", got, want)
	}
}
