package subtab_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"subtab"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fingerprints")

// goldenConfig pins every seed of the pipeline so the selection is a pure
// function of the code; embedding training is deterministic at any Workers
// setting, so no stage needs special-casing.
func goldenConfig() subtab.Options {
	opt := subtab.DefaultOptions()
	opt.Bins.Seed = 41
	opt.Corpus.Seed = 41
	opt.Embedding = subtab.EmbeddingOptions{Dim: 16, Epochs: 2, Seed: 41}
	opt.ClusterSeed = 41
	return opt
}

// goldenFingerprint renders every observable part of a selection.
func goldenFingerprint(st *subtab.SubTable) string {
	return fmt.Sprintf("%v|%v|%v|%s", st.SourceRows, st.ColIdx, st.Cols, st.View.Render(nil))
}

// TestGoldenSelectionFingerprints locks the full pipeline's output on three
// of the paper's datasets: any refactor that changes a single byte of a
// selection — binning boundaries, corpus sampling, embedding arithmetic,
// clustering, tie-breaks, rendering — fails here and must either be fixed
// or deliberately re-record the goldens with `go test -run Golden -update`.
// Earlier PRs guarded cross-refactor determinism ad hoc (stash + compare);
// the checked-in fingerprints make the guard permanent and cross-PR.
func TestGoldenSelectionFingerprints(t *testing.T) {
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			model := goldenModel(t, name, goldenConfig())
			checkGolden(t, name+".fingerprint", goldenSelections(t, model, name, nil))
		})
	}
}

// TestGoldenScaledBelowThreshold pins the large-table mode's gate: with the
// scaled mode configured but every table below its threshold, selections
// must match the *exact-path* golden fingerprints byte for byte. This test
// never records — it reuses the files TestGoldenSelectionFingerprints owns,
// so a gate leak cannot hide behind a stale recording.
func TestGoldenScaledBelowThreshold(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1_000_000, SampleBudget: 64, BatchSize: 32, MaxIter: 5}
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			opt := goldenConfig()
			opt.Scale = *scale // model-wide, and overridden per call below
			model := goldenModel(t, name, opt)
			got := goldenSelections(t, model, name, scale)
			path := filepath.Join("testdata", "golden", name+".fingerprint")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("below-threshold scaled selection diverged from the exact path for %s.\n"+
					"The scale gate must be a no-op below Threshold.\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// TestGoldenLargeModeFingerprints locks the scaled path's own output:
// mini-batch mode force-enabled (threshold 1) with a budget below the table
// size, so the stratified sampler, the mini-batch clustering and the
// candidate-only re-rank all execute. These fingerprints are recorded
// separately from the exact ones (`<name>.large.fingerprint`).
func TestGoldenLargeModeFingerprints(t *testing.T) {
	scale := &subtab.ScaleOptions{Threshold: 1, SampleBudget: 256, BatchSize: 128, MaxIter: 50}
	for _, name := range []string{"FL", "SP", "CY"} {
		t.Run(name, func(t *testing.T) {
			model := goldenModel(t, name, goldenConfig())
			checkGolden(t, name+".large.fingerprint", goldenSelections(t, model, name, scale))
		})
	}
}

// goldenModel generates dataset `name` at golden size and pre-processes it.
func goldenModel(t *testing.T, name string, opt subtab.Options) *subtab.Model {
	t.Helper()
	ds, err := subtab.GenerateDataset(name, 800, 41)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subtab.Preprocess(ds.T, opt)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// goldenSelections renders the whole-table and targeted selections (scale
// nil = the model's configured mode).
func goldenSelections(t *testing.T, model *subtab.Model, name string, scale *subtab.ScaleOptions) string {
	t.Helper()
	ds, err := subtab.GenerateDataset(name, 800, 41)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := model.SelectExplore(subtab.ExploreSpec{K: 8, L: 6, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	targeted, err := model.SelectExplore(subtab.ExploreSpec{K: 6, L: 4, Targets: ds.Targets[:1], Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	return "whole:\n" + goldenFingerprint(whole) + "\ntargeted:\n" + goldenFingerprint(targeted)
}

// checkGolden compares got against testdata/golden/<file>, rewriting it
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("selection fingerprint diverged from %s.\n"+
			"If this change is intentional, re-record with `go test -run Golden -update`.\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}
