// Command subtab-bench seeds and extends the repository's performance
// trajectory: it runs the key pipeline benchmarks (Fig. 9 preprocess and
// selection, k-means over row vectors, the serving layer's cold / disk /
// warm paths, and the large-table selection scenarios) in-process via
// testing.Benchmark and merges the results into a JSON file under a label,
// so successive PRs can record before/after numbers measured by the exact
// same harness:
//
//	subtab-bench -label baseline -out BENCH_PR8.json   # before a change
//	subtab-bench -label current  -out BENCH_PR8.json   # after
//
// The -suite flag picks what runs: "core" is the historical set over the
// 3000-row FL table, "large" is the Fig9SelectLarge set (exact-path 100k
// baseline, scaled 100k, scaled 1M — the interactivity claim for
// million-row tables), "oocore" is the out-of-core set (scaled selection
// over an mmap'd code store, with and without slab spilling, on a table
// larger than the configured memory budget), "shard" is the sharded
// scatter/gather set (scaled selection fanned out across 4 shard stores,
// the number to compare against OOCoreSelect/1M), "colstore" is the paged
// raw-column set (rendering a display-sized view from the mmap'd column
// store vs from inline column arrays, on a 1M-row table), "preprocess" is
// the cold-path set (the Fig. 9 preprocess plus its stages in isolation —
// binning+corpus, and embedding training at full parallelism and pinned to
// one worker), "all" runs everything.
//
// -benchtime passes through to the testing harness (e.g. "1x" for a
// compile-and-crash smoke, "2s" for stabler timings); a benchmark that
// fails or panics inside the harness produces an empty result, which this
// command treats as a hard error instead of silently recording nothing.
//
// The file maps label -> benchmark -> {ns_per_op, bytes_per_op,
// allocs_per_op, n}; existing labels other than the one being written are
// preserved, and the file is replaced atomically (temp file + rename) so a
// crashed run cannot clobber previously recorded results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"

	"subtab"
	"subtab/internal/binning"
	"subtab/internal/cluster"
	"subtab/internal/colstore"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/f32"
	"subtab/internal/modelio"
	"subtab/internal/serve"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n"`
}

func record(r testing.BenchmarkResult) entry {
	return entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		N:           r.N,
	}
}

func pipelineOptions() subtab.Options {
	opt := subtab.DefaultOptions()
	opt.Bins.Seed = 1
	opt.Corpus.Seed = 1
	opt.Embedding = subtab.EmbeddingOptions{Dim: 24, Epochs: 3, Seed: 1}
	opt.ClusterSeed = 1
	return opt
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("subtab-bench: ")
	// Register the testing flags before parsing so -benchtime can be
	// forwarded to the harness testing.Benchmark reads it from.
	testing.Init()
	var (
		out       = flag.String("out", "BENCH_PR8.json", "JSON file to merge results into")
		label     = flag.String("label", "current", "label to record results under")
		suite     = flag.String("suite", "all", "benchmark suite: core, large, oocore, shard, colstore, preprocess, or all")
		benchtime = flag.String("benchtime", "", `passed to the testing harness, e.g. "1x" or "2s" (empty = the 1s default)`)
	)
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			log.Fatalf("-benchtime %q: %v", *benchtime, err)
		}
	}

	results := map[string]entry{}
	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			// testing.Benchmark swallows b.Fatal/b.Skip into an empty result;
			// recording nothing silently would hide a broken benchmark from
			// CI, so treat it as a hard failure.
			log.Fatalf("benchmark %s failed inside the harness (empty result)", name)
		}
		results[name] = record(r)
		fmt.Printf("%-24s %12.0f ns/op %10d B/op %8d allocs/op  (n=%d)\n",
			name, results[name].NsPerOp, results[name].BytesPerOp, results[name].AllocsPerOp, r.N)
	}
	switch *suite {
	case "core":
		runCoreSuite(run)
	case "large":
		runLargeSuite(run)
	case "oocore":
		runOOCoreSuite(run)
	case "shard":
		runShardSuite(run)
	case "colstore":
		runColStoreSuite(run)
	case "preprocess":
		runPreprocessSuite(run)
	case "all":
		runCoreSuite(run)
		runLargeSuite(run)
		runOOCoreSuite(run)
		runShardSuite(run)
		runColStoreSuite(run)
		runPreprocessSuite(run)
	default:
		log.Fatalf("unknown -suite %q: want core, large, oocore, shard, colstore, preprocess or all", *suite)
	}

	merged := map[string]map[string]entry{}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			log.Fatalf("existing %s is not a bench file: %v", *out, err)
		}
	}
	// Merge per benchmark, not per label: partial runs (-suite core, then
	// -suite large) under one label accumulate instead of discarding the
	// other suite's numbers.
	if merged[*label] == nil {
		merged[*label] = map[string]entry{}
	}
	for name, e := range results {
		merged[*label][name] = e
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	// Write via temp file + rename: a crash partway through a suite (or
	// mid-write) must never truncate or clobber the labeled results file.
	tmp := *out + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(tmp, *out); err != nil {
		os.Remove(tmp)
		log.Fatal(err)
	}
	log.Printf("wrote %q results to %s", *label, *out)
}

// runCoreSuite is the historical benchmark set over the 3000-row FL table.
func runCoreSuite(run func(name string, fn func(b *testing.B))) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	opt := pipelineOptions()
	model, err := subtab.Preprocess(ds.T, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Fig. 9: the one-off pre-processing cost vs the per-display cost — the
	// paper's interactivity claim, and this repo's headline hot path.
	run("Fig9Preprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := subtab.Preprocess(ds.T, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("Fig9Selection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := model.Select(10, 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Streaming ingestion: a 1% append on the Fig. 9 dataset through the
	// warm incremental path (bin reuse + frozen embedding + in-place vector
	// cache extension) vs the full re-preprocess it replaces. The
	// interactivity claim of the append PR is the ratio of this number to
	// Fig9Preprocess.
	appendRows := func() *subtab.Table {
		d, err := datagen.ByName("FL", 30, 99) // 1% of 3000, same distribution
		if err != nil {
			log.Fatal(err)
		}
		return d.T
	}
	if _, err := model.Select(10, 10, nil); err != nil { // warm the vector cache
		log.Fatal(err)
	}
	delta := appendRows()
	if _, stats, err := model.Append(delta, subtab.AppendOptions{}); err != nil {
		log.Fatal(err)
	} else if stats.Rebinned {
		log.Fatalf("1%% append unexpectedly rebinned (%s); the warm-path benchmark would be meaningless", stats.RebinReason)
	}
	run("Fig9Append1pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := model.Append(delta, subtab.AppendOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// K-means over the table's row vectors (flat-matrix path, as Select
	// invokes it). Setup stays outside the closure: testing.Benchmark
	// re-invokes it for every b.N sizing round.
	pts := rowVectorMatrix()
	run("KMeansRows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster.KMeansMatrix(pts, 10, cluster.Options{Seed: 1})
		}
	})

	// Serving layer: cold (preprocess per request), disk restore, and warm
	// steady state.
	serveTable := func() *subtab.Table {
		d, err := datagen.ByName("FL", 2000, 3)
		if err != nil {
			log.Fatal(err)
		}
		return d.T
	}
	coldTable := serveTable()
	run("ServeColdPreprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := subtab.Preprocess(coldTable, opt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Select(10, 5, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	diskModel, err := subtab.Preprocess(serveTable(), opt)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "subtab-bench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	diskPath := filepath.Join(dir, "bench.subtab")
	if err := modelio.SaveFile(diskPath, diskModel); err != nil {
		log.Fatal(err)
	}
	run("ServeDiskLoadSelect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loaded, err := modelio.LoadFile(diskPath)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := loaded.Select(10, 5, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	svc := serve.NewService(serve.NewStore(serve.StoreOptions{}), opt)
	if _, err := svc.AddTable("bench", serveTable(), nil, false); err != nil {
		log.Fatal(err)
	}
	run("ServeWarmSelect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Select("bench", subtab.ExploreSpec{K: 10, L: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// largePipelineOptions is the pipeline for the large-selection scenarios:
// selection cost does not depend on embedding quality, so training is cut to
// one epoch at dim 16 to keep the one-off 100k/1M pre-processing (which is
// setup here, not the thing measured) affordable on the bench box.
func largePipelineOptions() subtab.Options {
	opt := subtab.DefaultOptions()
	opt.Bins.Seed = 1
	opt.Corpus.Seed = 1
	opt.Embedding = subtab.EmbeddingOptions{Dim: 16, Epochs: 1, Seed: 1}
	opt.ClusterSeed = 1
	return opt
}

// runLargeSuite measures the Fig9SelectLarge scenarios: a full Select on
// 100k rows down the exact path (the baseline the scaled mode must beat by
// >= 5x at equal k) and down the scaled path, then the scaled path on a
// million rows (the interactivity claim: a full Select under 2s on the
// 1-vCPU bench box).
func runLargeSuite(run func(name string, fn func(b *testing.B))) {
	scale := &subtab.ScaleOptions{Threshold: 50_000} // budget/batch/iters: defaults

	largeModel := func(rows int) *subtab.Model {
		ds, err := datagen.ByName("FL", rows, 1)
		if err != nil {
			log.Fatal(err)
		}
		m, err := subtab.Preprocess(ds.T, largePipelineOptions())
		if err != nil {
			log.Fatal(err)
		}
		return m
	}

	log.Printf("preprocessing FL 100k (setup)")
	m100k := largeModel(100_000)
	if _, err := m100k.Select(10, 10, nil); err != nil { // warm the vector cache
		log.Fatal(err)
	}
	run("Fig9Select100kExact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m100k.Select(10, 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("Fig9SelectLarge/100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m100k.SelectExplore(subtab.ExploreSpec{K: 10, L: 10, Scale: scale}); err != nil {
				b.Fatal(err)
			}
		}
	})

	log.Printf("preprocessing FL 1M (setup)")
	m1m := largeModel(1_000_000)
	run("Fig9SelectLarge/1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m1m.SelectExplore(subtab.ExploreSpec{K: 10, L: 10, Scale: scale}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runOOCoreSuite measures the out-of-core selection path: a 1M-row model
// whose bin codes live in an mmap'd code store (inline codes dropped), far
// larger than the configured slab budget. OOCoreSelect/1M is the
// store-streaming scaled select with an in-memory sampled slab — the
// number to compare against Fig9SelectLarge/1M, whose codes are resident;
// OOCoreSelectSpill/1M additionally caps the sampled tuple-vector slab at
// 256KiB so every select builds, spills and re-reads it from disk.
func runOOCoreSuite(run func(name string, fn func(b *testing.B))) {
	const rows = 1_000_000
	ds, err := datagen.ByName("FL", rows, 1)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("preprocessing FL 1M (setup)")
	m, err := subtab.Preprocess(ds.T, largePipelineOptions())
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "subtab-bench-oocore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cs, err := m.UseCodeStoreFile(filepath.Join(dir, "fl1m"+".codes"), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cs.Close()
	log.Printf("code store: %d blocks of %d rows, mmap=%v", cs.NumBlocks(), cs.BlockRows(), cs.Mapped())

	scale := &subtab.ScaleOptions{Threshold: 50_000}
	run("OOCoreSelect/1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.SelectExplore(subtab.ExploreSpec{K: 10, L: 10, Scale: scale}); err != nil {
				b.Fatal(err)
			}
		}
	})
	spill := &subtab.ScaleOptions{Threshold: 50_000, SlabBudgetBytes: 256 << 10}
	run("OOCoreSelectSpill/1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.SelectExplore(subtab.ExploreSpec{K: 10, L: 10, Scale: spill}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runShardSuite measures the sharded scatter/gather path: the same 1M-row
// model as the oocore suite, with its bin codes split across 4 shard
// stores instead of one. ShardSelect/1M-4 is the scaled select whose
// stratified sample fans out one goroutine per shard and merges the
// per-stratum minima associatively — selections are byte-identical to the
// single-store path, so the only question this number answers is what the
// split costs (or saves) against OOCoreSelect/1M.
func runShardSuite(run func(name string, fn func(b *testing.B))) {
	const rows = 1_000_000
	ds, err := datagen.ByName("FL", rows, 1)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("preprocessing FL 1M (setup)")
	m, err := subtab.Preprocess(ds.T, largePipelineOptions())
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "subtab-bench-shard")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("fl1m.codes.%03d", i))
	}
	src, err := m.UseShardedStores(paths, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	log.Printf("shard stores: %d shards of ~%d rows, %d rows/block", src.NumShards(), src.ShardRows(0), src.BlockRows())

	scale := &subtab.ScaleOptions{Threshold: 50_000}
	run("ShardSelect/1M-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.SelectExplore(subtab.ExploreSpec{K: 10, L: 10, Scale: scale}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runColStoreSuite measures what paging the raw columns costs at render
// time: the same display-sized view (10 rows x 10 cols, rows strided so
// each lands in a different block — the paged path's worst case), built
// from inline column arrays vs gathered from the mmap'd column store. No
// model is needed; rendering is a pure table/colstore operation, which is
// the point — a server can shed a 1M-row table's cell residency and still
// answer view renders at interactive latency.
func runColStoreSuite(run func(name string, fn func(b *testing.B))) {
	const rows = 1_000_000
	ds, err := datagen.ByName("FL", rows, 1)
	if err != nil {
		log.Fatal(err)
	}
	tbl := ds.T
	dir, err := os.MkdirTemp("", "subtab-bench-colstore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fl1m.cols")
	if err := colstore.WriteTable(path, tbl, 0); err != nil {
		log.Fatal(err)
	}
	st, err := colstore.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	log.Printf("column store: %d blocks of %d rows, mmap=%v", st.NumBlocks(), st.BlockRows(), st.Mapped())

	const k, l = 10, 10
	viewRows := make([]int, k)
	for i := range viewRows {
		viewRows[i] = i*(rows/k) + i*137
	}
	colIdx := make([]int, l)
	names := make([]string, l)
	for i, name := range tbl.ColumnNames()[:l] {
		colIdx[i] = i
		names[i] = name
	}

	run("InlineRender/1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := tbl.SubTableView(viewRows, names)
			if err != nil {
				b.Fatal(err)
			}
			v.Render(nil)
		}
	})
	run("ColStoreRender/1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := table.GatherView(st, tbl.Name, viewRows, colIdx)
			if err != nil {
				b.Fatal(err)
			}
			v.Render(nil)
		}
	})
}

// runPreprocessSuite isolates the pre-processing cold path: the full Fig. 9
// preprocess over the 3000-row FL table (same benchmark and harness as the
// core suite, so numbers recorded under different labels are comparable),
// the embedding-training stage alone at the engine's full parallelism and
// pinned to one worker (their ratio is the parallel speedup — and since the
// deterministic sharded-gradient engine makes training a pure function of
// (corpus, options), both produce byte-identical vectors), and the binning +
// corpus stages that bound what faster training cannot cut.
func runPreprocessSuite(run func(name string, fn func(b *testing.B))) {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	opt := pipelineOptions()
	run("Fig9Preprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := subtab.Preprocess(ds.T, opt); err != nil {
				b.Fatal(err)
			}
		}
	})

	binned, err := binning.Bin(ds.T, opt.Bins)
	if err != nil {
		log.Fatal(err)
	}
	sents := corpus.Build(binned, opt.Corpus)
	run("BinAndCorpus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bn, err := binning.Bin(ds.T, opt.Bins)
			if err != nil {
				b.Fatal(err)
			}
			corpus.Build(bn, opt.Corpus)
		}
	})
	run("Word2VecTrain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			word2vec.Train(sents, opt.Embedding)
		}
	})
	serial := opt.Embedding
	serial.Workers = 1
	run("Word2VecTrain/w1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			word2vec.Train(sents, serial)
		}
	})
}

// rowVectorMatrix reproduces the Select path's input: one mean-pooled
// tuple-vector per row, in one contiguous matrix.
func rowVectorMatrix() f32.Matrix {
	ds, err := datagen.ByName("FL", 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	bn, err := subtab.Preprocess(ds.T, func() subtab.Options {
		o := pipelineOptions()
		o.Embedding.Epochs = 2
		return o
	}())
	if err != nil {
		log.Fatal(err)
	}
	cols := make([]int, ds.T.NumCols())
	for i := range cols {
		cols[i] = i
	}
	pts := f32.New(ds.T.NumRows(), bn.Emb.Dim())
	for r := 0; r < ds.T.NumRows(); r++ {
		copy(pts.Row(r), bn.RowVector(r, cols))
	}
	return pts
}
