package serve

import (
	"testing"
	"time"

	"subtab/internal/core"
	"subtab/internal/datagen"
	"subtab/internal/word2vec"
)

// TestColdUploadSmoke is the CI cold-upload smoke: AddTable on a fresh
// 3000-row FL table runs the full pre-processing pipeline (binning, corpus
// construction, embedding training) before the first display can be served —
// the paper's Fig. 9 one-off cost, and the latency a user sits through after
// uploading a table. The deterministic parallel trainer brought this from
// ~1.3s to ~0.35s on the 1-vCPU bench box, so the 2s bound keeps headroom
// for a slow CI runner while still failing on a regression back to the old
// serial-equivalent training cost, which lands at the bound instead of well
// under it. CI runs this as its own step (no -race, no coverage
// instrumentation — both inflate the hot training loop enough to make a
// wall-clock bound meaningless).
func TestColdUploadSmoke(t *testing.T) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Default()
	opt.Bins.Seed = 1
	opt.Corpus.Seed = 1
	opt.Embedding = word2vec.Options{Dim: 24, Epochs: 3, Seed: 1}
	opt.ClusterSeed = 1
	svc := NewService(NewStore(StoreOptions{}), opt)

	start := time.Now()
	if _, err := svc.AddTable("fl", ds.T, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Select("fl", core.ExploreSpec{K: 10, L: 5}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("cold upload (preprocess + first select) took %s, over the 2s smoke bound", elapsed)
	}
	t.Logf("cold upload (preprocess + first select): %s", elapsed)
}
