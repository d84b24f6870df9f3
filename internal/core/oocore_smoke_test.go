// Out-of-core CI smoke: prove the memory bound instead of trusting it.
// The CI workflow generates a 1M-row table with subtab-datagen, points
// SUBTAB_OOC_SMOKE_CSV at it and runs this test under GOMEMLIMIT=256MiB:
// the table is pre-processed, paged out to an mmap'd code store and column
// store (its codes and cells released), and a scaled Select must finish
// inside the wall-clock bound with the process peak RSS under the asserted
// ceiling. It also pins the code store at one byte per cell plus framing,
// and logs the bytes per CSV byte of the column store. Without the env var the test skips,
// so routine `go test ./...` runs never pay for the 1M-row setup.
package core_test

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// smokeSelectBound is the hard wall-clock bound on the out-of-core scaled
// Select (not the one-off preprocessing) — generous for the 1-vCPU CI
// runner while still catching an accidental O(rows) regression or a
// store-access path gone quadratic (the measured time is ~0.2s).
const smokeSelectBound = 60 * time.Second

// smokeSteadyRSSBound caps the serving steady state: resident memory after
// the selects, with the heap flushed back to the OS. This is what the
// out-of-core path controls — the embedding stays resident, the cells,
// the code matrix and the sampled vectors do not. 1M x 31 FL measures
// ~290MiB here; the bound leaves headroom for runner variance while still
// failing if bin codes or a rows-sized vector slab creep back into the
// steady state.
const smokeSteadyRSSBound = 512 << 20

// smokePeakRSSBound caps the whole run's high-water RSS, preprocessing
// included (CSV parsing dominates it; ~875MiB measured). It exists to
// catch egregious regressions — a second table copy, codes duplicated per
// column scan — not to bound the one-off build tightly.
const smokePeakRSSBound = 1280 << 20

func TestOutOfCoreSmoke(t *testing.T) {
	csvPath := os.Getenv("SUBTAB_OOC_SMOKE_CSV")
	if csvPath == "" {
		t.Skip("set SUBTAB_OOC_SMOKE_CSV to a generated CSV (see the CI out-of-core smoke step)")
	}
	tbl, err := table.ReadCSVFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("table: %d rows x %d cols", tbl.NumRows(), tbl.NumCols())

	// Selection cost does not depend on embedding quality; train small so
	// the smoke's setup stays affordable on one vCPU (mirrors the large
	// bench suite's rationale).
	opt := core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 3},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 3},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 3},
		ClusterSeed: 3,
	}
	m, err := core.Preprocess(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	codesPath, cellsPath := filepath.Join(dir, "smoke.codes"), filepath.Join(dir, "smoke.cols")
	rows, cols := tbl.NumRows(), tbl.NumCols()
	if err := m.PageOut([]string{codesPath}, []string{cellsPath}, false, 0); err != nil {
		t.Fatal(err)
	}
	cs := m.B.Source().(*codestore.Store)
	t.Logf("code store: %d blocks of %d rows, mmap=%v", cs.NumBlocks(), cs.BlockRows(), cs.Mapped())

	// Every column has at most 5 bins, so the code store holds one byte per
	// cell; the rest is framing: the 26-byte header, the u32 meta length and
	// one width byte per column, a u32 CRC per page and the 12-byte footer.
	framing := 26 + 4 + cols + 4*cs.NumBlocks()*cols + 12
	if size := fileSize(t, codesPath); size != int64(rows*cols+framing) {
		t.Fatalf("code store holds %d bytes for %dx%d cells, want %d (1 byte per cell + %d of framing)", size, rows, cols, rows*cols+framing, framing)
	}
	t.Logf("column store: %.3f bytes per CSV byte", float64(fileSize(t, cellsPath))/float64(fileSize(t, csvPath)))

	scale := &core.ScaleOptions{Threshold: 50_000}
	start := time.Now()
	st, err := m.SelectExplore(core.ExploreSpec{K: 10, L: 8, Scale: scale})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SourceRows) != 10 {
		t.Fatalf("out-of-core Select returned %d rows, want 10", len(st.SourceRows))
	}
	if elapsed > smokeSelectBound {
		t.Fatalf("out-of-core Select took %s, over the %s smoke bound", elapsed, smokeSelectBound)
	}
	t.Logf("out-of-core scaled Select: %s", elapsed)

	// A warm repeat must agree byte for byte (the sample cache is
	// deterministic).
	again, err := m.SelectExplore(core.ExploreSpec{K: 10, L: 8, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(again) != fingerprint(st) {
		t.Fatal("repeated out-of-core Select diverged")
	}

	// RSS assertions (Linux; elsewhere the wall-clock bound stands alone).
	debug.FreeOSMemory()
	if steady, ok := rssBytes(t, "VmRSS:"); ok {
		t.Logf("steady-state RSS: %d MiB (bound %d MiB)", steady>>20, int64(smokeSteadyRSSBound)>>20)
		if steady > smokeSteadyRSSBound {
			t.Fatalf("steady-state RSS %d MiB exceeds the %d MiB bound — the out-of-core path is not honoring the memory budget",
				steady>>20, int64(smokeSteadyRSSBound)>>20)
		}
	}
	if peak, ok := rssBytes(t, "VmHWM:"); ok {
		t.Logf("peak RSS: %d MiB (bound %d MiB)", peak>>20, int64(smokePeakRSSBound)>>20)
		if peak > smokePeakRSSBound {
			t.Fatalf("peak RSS %d MiB exceeds the %d MiB bound", peak>>20, int64(smokePeakRSSBound)>>20)
		}
	}
	// The steady-state figure must describe a live served model, not one
	// the collector already reclaimed.
	runtime.KeepAlive(m)
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// rssBytes reads one RSS figure (VmRSS: current, VmHWM: high-water) from
// /proc/self/status; non-Linux platforms report ok=false and skip the
// assertion.
func rssBytes(t *testing.T, key string) (int64, bool) {
	if runtime.GOOS != "linux" {
		return 0, false
	}
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Logf("reading /proc/self/status: %v", err)
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != key {
			continue
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}
