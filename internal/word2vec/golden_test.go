package word2vec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
)

var updateTrainGolden = flag.Bool("update", false, "rewrite testdata/train_golden.txt")

// trainHash is SHA-256 over every bit the trainer produced: the token order
// and both matrices, little-endian.
func trainHash(m *Model) string {
	tokens, vecs, ctx := modelBytes(m)
	h := sha256.New()
	var b [4]byte
	for _, tok := range tokens {
		binary.LittleEndian.PutUint32(b[:], uint32(tok))
		h.Write(b[:])
	}
	for _, data := range [][]float32{vecs, ctx} {
		for _, v := range data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flightsCorpus is the pipeline's own input shape: tuple-sentences of a
// binned FL table (31 tokens each), as core.Preprocess builds them.
func flightsCorpus(t *testing.T) [][]int32 {
	t.Helper()
	b, err := binning.Bin(datagen.Flights(1200, 41).T, binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Build(b, corpus.Options{TupleSentences: true, Seed: 41})
}

// TestTrainGolden pins the trained embedding bits at the embedding layer.
// The selection goldens see the embeddings only through the rows a display
// happens to choose; this sees every bit of both matrices, so a kernel whose
// arithmetic differs from the recorded one in a single lane fails here even
// when no selection moves. Dim 10 keeps the kernels' scalar tails covered,
// 24 a width that is a multiple of 4 but not of 8. The recorded hashes are
// those of the unfused amd64 build (see package f32); `-update`, given after
// the package path, re-records.
func TestTrainGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes are recorded on amd64; other targets fuse a*b+c and train different bits")
	}
	corpora := []struct {
		name  string
		sents [][]int32
	}{
		{"planted", planted(2000, 13)},
		{"flights", flightsCorpus(t)},
	}
	var got strings.Builder
	for _, c := range corpora {
		for _, dim := range []int{16, 24, 32, 10} {
			for _, workers := range []int{1, 4} {
				m := Train(c.sents, Options{Dim: dim, Epochs: 2, Seed: 41, Workers: workers})
				fmt.Fprintf(&got, "%s dim=%d workers=%d %s\n", c.name, dim, workers, trainHash(m))
			}
		}
	}
	path := filepath.Join("testdata", "train_golden.txt")
	if *updateTrainGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/word2vec/ -run TestTrainGolden -update`): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("trained embedding bits diverged from %s.\n got:\n%swant:\n%s", path, got.String(), want)
	}
}
