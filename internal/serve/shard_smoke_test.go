// Sharded CI smoke: prove the scatter/gather claim at stress size instead
// of trusting the unit sweep. The CI workflow generates a 1M-row table
// (plus standalone shard stores) with subtab-datagen -shards 4, points
// SUBTAB_SHARD_SMOKE_CSV at the CSV and runs this test: the table is
// pre-processed once into a 4-shard layout, a scaled Select runs through
// the in-process goroutine fan-out, then the shards are split across two
// loopback server instances (coordinator + worker) and the same Select
// runs over HTTP — both inside a wall-clock bound, with byte-identical
// fingerprints — and a freshly loaded worker instance must hold only a
// small fraction of the table's inline cell bytes on its heap (its raw
// columns live in mmap'd shard-local pages). Without the env var the test
// skips, so routine `go test ./...` runs never pay for the 1M-row setup.
package serve

import (
	"bufio"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/shard"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// shardSmokeSelectBound is the hard wall-clock bound on each scaled
// Select (not the one-off preprocessing): generous for the 1-vCPU CI
// runner, while still catching an accidental O(rows) merge or a scatter
// path gone quadratic. In-process measures ~0.2s; the HTTP mode adds two
// loopback round trips.
const shardSmokeSelectBound = 60 * time.Second

func shardSmokeOptions() core.Options {
	// Selection cost does not depend on embedding quality; train small so
	// the smoke's setup stays affordable on one vCPU (mirrors the
	// out-of-core smoke's rationale).
	return core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 3},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 3},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 3},
		ClusterSeed: 3,
	}
}

func TestShardedSmoke(t *testing.T) {
	csvPath := os.Getenv("SUBTAB_SHARD_SMOKE_CSV")
	if csvPath == "" {
		t.Skip("set SUBTAB_SHARD_SMOKE_CSV to a generated CSV (see the CI sharded smoke step)")
	}
	tbl, err := table.ReadCSVFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("table: %d rows x %d cols", tbl.NumRows(), tbl.NumCols())

	// When datagen also emitted standalone shard stores (-shards), open
	// them against their map: Open verifies every checksum and geometry,
	// so this is an end-to-end check of the emitted artifacts.
	if mapPath := os.Getenv("SUBTAB_SHARD_SMOKE_MAP"); mapPath != "" {
		sm, err := shard.ReadFile(mapPath)
		if err != nil {
			t.Fatal(err)
		}
		src, err := shard.Open(filepath.Dir(mapPath), sm, tbl.NumCols(), false)
		if err != nil {
			t.Fatalf("opening datagen-emitted shard stores: %v", err)
		}
		if src.NumRows() != tbl.NumRows() {
			t.Fatalf("datagen shard map covers %d rows, CSV has %d", src.NumRows(), tbl.NumRows())
		}
		t.Logf("datagen shard stores: %d shards, %d rows, all checksums valid", src.NumShards(), src.NumRows())
		src.Close()
	}

	coordDir, workerDir := t.TempDir(), t.TempDir()
	build := NewService(NewStore(StoreOptions{Dir: coordDir}), shardSmokeOptions())
	start := time.Now()
	if _, err := build.AddTableSharded("smoke", tbl, nil, 4, false); err != nil {
		t.Fatal(err)
	}
	t.Logf("preprocess + 4-shard export: %s", time.Since(start).Round(time.Millisecond))

	// In-process mode: the complete sharded model fans out one goroutine
	// per shard.
	scale := &core.ScaleOptions{Threshold: 50_000}
	start = time.Now()
	inproc, err := build.Select("smoke", core.ExploreSpec{K: 10, L: 8, Scale: scale})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > shardSmokeSelectBound {
		t.Fatalf("in-process sharded Select took %s, over the %s smoke bound", elapsed, shardSmokeSelectBound)
	}
	t.Logf("in-process scatter/gather Select: %s", elapsed)
	again, err := build.Select("smoke", core.ExploreSpec{K: 10, L: 8, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if subTableFingerprint(again) != subTableFingerprint(inproc) {
		t.Fatal("repeated in-process sharded Select diverged")
	}

	// HTTP mode: shards 2 and 3 — code files and column files — plus a copy
	// of the model file move to a second instance's cache dir; the
	// coordinator keeps 0 and 1, samples the remote codes over loopback
	// HTTP and fetches remote rows' rendered cells the same way.
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
	paths, err := build.Store().ShardPaths("smoke", 4)
	if err != nil {
		t.Fatal(err)
	}
	colPaths, err := build.Store().ColumnShardPaths("smoke", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		for _, p := range []string{paths[i], colPaths[i]} {
			if err := os.Rename(p, filepath.Join(workerDir, filepath.Base(p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	worker := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), shardSmokeOptions())
	srv := httptest.NewServer(NewHandler(worker, nil))
	t.Cleanup(srv.Close)
	coord := NewService(NewStore(StoreOptions{
		Dir:                coordDir,
		AllowMissingShards: true,
		PrepareModel: func(n string, m *core.Model) error {
			if m.ShardSource() == nil || m.ShardSource().Complete() {
				return nil
			}
			sampler, err := NewShardSampler(n, m, ShardPeersOptions{Peers: []string{srv.URL}})
			if err != nil {
				return err
			}
			m.SetShardSampler(sampler)
			return nil
		},
	}), shardSmokeOptions())
	// Load both instances' models up front so the timed Select measures
	// the scatter/gather round, not two 1M-row disk loads.
	if _, err := worker.Model("smoke"); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Model("smoke"); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	overHTTP, err := coord.Select("smoke", core.ExploreSpec{K: 10, L: 8, Scale: scale})
	elapsed = time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > shardSmokeSelectBound {
		t.Fatalf("HTTP sharded Select took %s, over the %s smoke bound", elapsed, shardSmokeSelectBound)
	}
	t.Logf("2-instance HTTP scatter/gather Select: %s", elapsed)

	if subTableFingerprint(overHTTP) != subTableFingerprint(inproc) {
		t.Fatalf("HTTP scatter/gather diverged from the in-process fan-out:\n got %s\nwant %s",
			subTableFingerprint(overHTTP), subTableFingerprint(inproc))
	}

	// Worker residency: a worker instance serves its shards from mmap'd code
	// and column pages behind a schema husk, so its live-heap cost must be a
	// small fraction of the table's inline cell bytes. Both roles share this
	// test process, so the two-instance "worker RSS < coordinator RSS" claim
	// is measured as the heap retained by a freshly loaded worker instance
	// against a floor on what the inline cells occupy (4 bytes per cell is
	// the categorical minimum; numeric columns cost 8).
	inlineFloor := int64(tbl.NumRows()) * int64(tbl.NumCols()) * 4
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	fresh := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), shardSmokeOptions())
	fm, err := fresh.Model("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if !fm.CellsPaged() {
		t.Fatal("worker reload lost its paged cells")
	}
	if sc := fm.ShardCells(); sc == nil || sc.Complete() || !sc.ShardAvailable(2) || !sc.ShardAvailable(3) {
		t.Fatalf("worker owns the wrong column shards: %+v", fm.ShardCells())
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	workerHeap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("fresh worker instance live heap: %d MiB (inline cells occupy at least %d MiB)",
		workerHeap>>20, inlineFloor>>20)
	if workerHeap > inlineFloor/4 {
		t.Fatalf("fresh worker instance retains %d MiB of heap, more than a quarter of the %d MiB inline-cell floor — the worker is not serving from paged columns",
			workerHeap>>20, inlineFloor>>20)
	}
	debug.FreeOSMemory()
	if rss, ok := procRSSBytes(t, "VmRSS:"); ok {
		t.Logf("process RSS after the 2-instance smoke: %d MiB", rss>>20)
	}
	runtime.KeepAlive(fm)
}

// procRSSBytes reads one RSS figure (VmRSS: current, VmHWM: high-water)
// from /proc/self/status; non-Linux platforms report ok=false.
func procRSSBytes(t *testing.T, key string) (int64, bool) {
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
