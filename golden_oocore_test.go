package subtab_test

import (
	"os"
	"path/filepath"
	"testing"

	"subtab"
)

// pageOutCodes pages model out at 96 rows per block: its codes to paths —
// one path: a plain code store; more: row-range shards — and its cells to
// a column store (or shards) beside each, named path + ".cols".
func pageOutCodes(t *testing.T, model *subtab.Model, paths ...string) {
	t.Helper()
	cells := make([]string, len(paths))
	for i, p := range paths {
		cells[i] = p + ".cols"
	}
	if err := model.PageOut(paths, cells, len(paths) > 1, 96); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenLargeModeFingerprintsOutOfCore pins the out-of-core selection
// path against the *existing* large-mode golden files: a model paged out
// to an mmap'd code store and column store must reproduce `<name>.large.fingerprint` byte for byte. This test
// never records — it reuses the files TestGoldenLargeModeFingerprints
// owns, so a divergence in the store-backed path cannot hide behind a
// re-recording.
func TestGoldenLargeModeFingerprintsOutOfCore(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			model := goldenModel(t, name, goldenConfig())
			pageOutCodes(t, model, filepath.Join(t.TempDir(), name+".codes"))
			path := filepath.Join("testdata", "golden", name+".large.fingerprint")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
			}
			if got := goldenSelections(t, model, name, scale); got != string(want) {
				t.Errorf("out-of-core scaled selection diverged from the recorded large-mode golden for %s.\n"+
					"The code store path must be byte-identical to the in-memory path.\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// TestOutOfCoreEvaluationStack pins that the paper's evaluation stack —
// metrics, rule mining, baselines — keeps working on a store-backed model
// (it reads codes through the shared accessor or a materialized copy).
func TestOutOfCoreEvaluationStack(t *testing.T) {
	model := goldenModel(t, "FL", goldenConfig())
	pageOutCodes(t, model, filepath.Join(t.TempDir(), "eval.codes"))
	st, err := model.Select(6, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := subtab.MineRules(model, subtab.MiningOptions{MinSupport: 0.1, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	e := subtab.NewEvaluator(model, rs, 0.5)
	score := e.Combined(st.AsMetricSubTable())
	if score < 0 || score > 1 {
		t.Fatalf("combined informativeness = %v, want a fraction", score)
	}
	if _, err := subtab.RandomBaseline(e, subtab.RandomBaselineOptions{K: 6, L: 5, MaxIters: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenOutOfCoreModelRoundTrip extends the golden guarantee across
// persistence: saving the paged model (its store images copied into the
// model file) and loading it back must still reproduce the recorded
// large-mode fingerprints.
func TestGoldenOutOfCoreModelRoundTrip(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	dir := t.TempDir()
	model := goldenModel(t, "FL", goldenConfig())
	pageOutCodes(t, model, filepath.Join(dir, "fl.codes"))
	if err := subtab.SaveModelFile(filepath.Join(dir, "fl.subtab"), model); err != nil {
		t.Fatal(err)
	}
	loaded, err := subtab.LoadModelFile(filepath.Join(dir, "fl.subtab"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "FL.large.fingerprint"))
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
	}
	if got := goldenSelections(t, loaded, "FL", scale); got != string(want) {
		t.Errorf("reloaded out-of-core model diverged from the recorded large-mode golden.\n got:\n%s\nwant:\n%s", got, want)
	}
}
