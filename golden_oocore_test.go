package subtab_test

import (
	"os"
	"path/filepath"
	"testing"

	"subtab"
	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/shard"
)

// pageOutCodes switches model's bin codes onto code stores at paths — one
// path: a plain code store; more: row-range shards — at 96 rows per block,
// and drops the inline codes while the cells stay resident: the layouts
// modelio version 5 and 6 files load into. Model.PageOut pages the cells
// too.
func pageOutCodes(t *testing.T, model *subtab.Model, paths ...string) {
	t.Helper()
	var src binning.CodeSource
	if len(paths) == 1 {
		if err := model.ExportCodeStore(paths[0], 96); err != nil {
			t.Fatal(err)
		}
		cs, err := codestore.Open(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cs.Close() })
		src = cs
	} else {
		rows := model.T.NumRows()
		cuts := make([]int, len(paths)+1)
		for i := range cuts {
			cuts[i] = i * rows / len(paths)
		}
		sink, err := shard.NewSplitSink(paths, cuts, model.B.NumBins(), 96)
		if err != nil {
			t.Fatal(err)
		}
		if err := model.B.ExportCodes(sink, 0); err != nil {
			t.Fatal(err)
		}
		sm, err := sink.Close()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := shard.Open(filepath.Dir(paths[0]), sm, model.T.NumCols(), false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		src = ss
	}
	if err := model.B.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	if err := model.B.DropInlineCodes(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenLargeModeFingerprintsOutOfCore pins the out-of-core selection
// path against the *existing* large-mode golden files: a model whose bin
// codes were exported to an mmap'd code store (inline codes dropped) must
// reproduce `<name>.large.fingerprint` byte for byte. This test
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
// (it reads codes through the shared accessor / a materialized copy; a
// regression here used to panic on the nil inline-code matrix).
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
// persistence: saving the store-backed model (modelio v5 external
// reference) and loading it back must still reproduce the recorded
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
