package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/f32"
	"subtab/internal/memgov"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/serve"
	"subtab/internal/session"
	"subtab/internal/shard"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// The replay measures layers from outside: after the timed phases of a
// traced run it makes, in-process and on the workload's subject table, the
// calls a request makes into each layer's public functions, one span per
// call. Nothing inside the served program is instrumented.
const (
	// replayRows caps the table the pre-process stages and the model
	// codec replay on, so a traced run costs about what an untraced one
	// does; selection- and store-path replays use the whole subject table.
	replayRows = 10_000
	// sampleRows is the scaled path's default sample budget: the row count
	// the vector build and the mini-batch clustering replay on.
	sampleRows = 20_000
	// exactRows is the size of the small-table (exact k-means) replays.
	exactRows  = 800
	selectReps = 7
	microReps  = 2000
)

// sink keeps the results of replayed kernels alive, so the compiler cannot
// drop the calls being timed.
var sink float64

// dur is one replayed duration in both time bases: scaled by the machine
// speed measured just before the call, and as the clock read it.
type dur struct{ ref, raw time.Duration }

func (d dur) minus(o dur) dur { return dur{d.ref - o.ref, d.raw - o.raw} }
func (d dur) plus(o dur) dur  { return dur{d.ref + o.ref, d.raw + o.raw} }

// replay records layer calls as spans and collects the per-layer metrics.
type replay struct {
	tr   *tracer
	pace *pace
	out  map[string]metricValue
}

// set records a metric that is not a time: a count, a size, a ratio.
func (r *replay) set(name string, v float64, unit string) { r.set2(name, v, v, unit) }

func (r *replay) set2(name string, ref, raw float64, unit string) {
	r.out[name] = metricValue{Value: ref, Unit: unit, raw: raw}
}

// time records a duration in the named unit.
func (r *replay) time(name string, d dur, unit string) {
	per := map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}[unit]
	r.set2(name, float64(d.ref)/per, float64(d.raw)/per, unit)
}

// rate records amount per second of d.
func (r *replay) rate(name string, amount float64, d dur, unit string) {
	r.set2(name, amount/d.ref.Seconds(), amount/d.raw.Seconds(), unit)
}

// once times a single call as a root span of its own trace, the reference
// kernel just before it.
func (r *replay) once(name string, fn func() error) (dur, error) {
	speed := r.pace.tick()
	sp := r.tr.start(name, -1, r.tr.newTrace())
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.tr.end(sp)
	if err != nil {
		return dur{}, fmt.Errorf("replay %s: %w", name, err)
	}
	return dur{time.Duration(float64(d) * speed), d}, nil
}

// median times reps calls (each its own span and trace) and returns the
// median duration.
func (r *replay) median(name string, reps int, fn func() error) (dur, error) {
	ref, raw := make([]float64, reps), make([]float64, reps)
	for i := range ref {
		d, err := r.once(name, fn)
		if err != nil {
			return dur{}, err
		}
		ref[i], raw[i] = float64(d.ref), float64(d.raw)
	}
	return dur{time.Duration(median(ref)), time.Duration(median(raw))}, nil
}

// batch times n back-to-back calls under one span and returns the mean;
// for calls too short to time singly.
func (r *replay) batch(name string, n int, fn func()) dur {
	d, _ := r.once(name, func() error {
		for i := 0; i < n; i++ {
			fn()
		}
		return nil
	})
	return dur{d.ref / time.Duration(n), d.raw / time.Duration(n)}
}

func fileSize(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()), nil
}

// replayLayers produces every per-layer metric for one traced run.
func replayLayers(sc *scene, out *outcome, tr *tracer, td *tableData, root string) (map[string]metricValue, error) {
	r := &replay{tr: tr, pace: out.pace, out: map[string]metricValue{}}
	dir := filepath.Join(root, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := sc.st.svc.Model(td.Name)
	if err != nil {
		return nil, err
	}
	v0 := &td.Variants[0]
	sc0 := &core.ScaleOptions{Threshold: out.w.threshold}
	for _, step := range []func() error{
		// The request-path replays go first, while the process is in the
		// state the timed loop left it in; the upload-path replay allocates
		// a second copy of the table.
		func() error { return r.serving(sc, out, td, v0, sc0) },
		func() error { return r.selection(m, v0, sc0) },
		func() error { return r.vectors(m) },
		func() error { return r.preprocess(sc, td, dir) },
		func() error { return r.filters(m, v0, dir) },
		func() error { return r.codeStore(m, dir) },
		func() error { return r.shards(m, dir) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r.small(sc)

	// The benchmark's own scoring, timed during the set-up; the machine's
	// speed over the whole run stands in for its speed just then.
	speed := out.pace.factorSince(0)
	scaled := func(d time.Duration) dur { return dur{time.Duration(float64(d) * speed), d} }
	r.time("rules.mine_ms", scaled(out.mineTime), "ms")
	r.time("metrics.combined_us", scaled(out.combinedTime), "us")
	r.set("serve.store_hits", float64(out.storeFloor.Hits), "count")
	r.set("serve.store_disk_loads", float64(out.storeFloor.DiskLoads), "count")
	r.set("serve.store_evictions", float64(out.storeFloor.Evictions), "count")
	gs := sc.st.gov.Stats()
	r.set("memgov.peak_bytes", float64(gs.PeakBytes), "bytes")
	r.set("memgov.admitted", float64(gs.Admitted), "count")
	r.set2("serve.first_display_cpu_s", out.t[inRef].firstCPU.typical(), out.t[inRaw].firstCPU.typical(), "s")
	// The tail is relative to each script's own kind, put back on the scale
	// of the typical script (see grouped.tailFactor); the 90th percentile is
	// the highest the floor of 100 scripts supports.
	_, tail := out.t[inRef].script.tailFactor()
	_, rawTail := out.t[inRaw].script.tailFactor()
	r.set2("serve.script_p90_ms", out.t[inRef].script.typical()*tail, out.t[inRaw].script.typical()*rawTail, "ms")
	r.set2("load.displays_per_s", float64(out.loadDisplays)/out.t[inRef].loadWall, float64(out.loadDisplays)/out.t[inRaw].loadWall, "1/s")
	r.set("load.clients", float64(out.loadClients), "count")
	r.set("process.peak_rss_mib", peakRSSMiB(), "MiB")
	r.set("machine.ref_kernel_us", median(out.pace.ns)/1e3, "us")
	traced, untraced := out.tracedScript[inRef].typical(), out.untracedScript[inRef].typical()
	r.set2("trace.script_p50_ms", traced, out.tracedScript[inRaw].typical(), "ms")
	r.set2("trace_overhead_pct", (traced/untraced-1)*100, (out.tracedScript[inRaw].typical()/out.untracedScript[inRaw].typical()-1)*100, "%")
	return r.out, nil
}

// preprocess replays the upload path stage by stage: CSV parse on the whole
// subject CSV, then binning, corpus, training and the whole Preprocess on
// its first replayRows rows, then the model codec and the column store
// writer on what they produced.
func (r *replay) preprocess(sc *scene, td *tableData, dir string) error {
	var full *table.Table
	d, err := r.once("table.read_csv", func() error {
		f, err := os.Open(td.CSVPath)
		if err != nil {
			return err
		}
		defer f.Close()
		full, err = table.ReadCSV(td.Name, f)
		return err
	})
	if err != nil {
		return err
	}
	r.time("table.read_csv_ms", d, "ms")
	r.rate("table.read_csv_mib_per_s", float64(td.CSVBytes)/(1<<20), d, "MiB/s")

	head := full.Head(replayRows)
	opt := sc.st.opt
	var b *binning.Binned
	if d, err = r.once("binning.bin", func() (err error) { b, err = binning.Bin(head, opt.Bins); return }); err != nil {
		return err
	}
	r.time("binning.bin_ms", d, "ms")
	stages := d
	var sents [][]int32
	d, _ = r.once("corpus.build", func() error { sents = corpus.Build(b, opt.Corpus); return nil })
	r.time("corpus.build_ms", d, "ms")
	r.set("corpus.sentences", float64(len(sents)), "count")
	stages = stages.plus(d)
	var cpu float64
	d, _ = r.once("word2vec.train", func() error {
		cpu0 := cpuSeconds()
		word2vec.Train(sents, opt.Embedding)
		cpu = (cpuSeconds() - cpu0) * 1000
		return nil
	})
	r.time("word2vec.train_ms", d, "ms")
	r.set2("word2vec.train_cpu_ms", cpu*float64(d.ref)/float64(d.raw), cpu, "ms")
	stages = stages.plus(d)
	var rm *core.Model
	if d, err = r.once("core.preprocess", func() (err error) { rm, err = core.Preprocess(head, opt); return }); err != nil {
		return err
	}
	r.time("core.preprocess_ms", d, "ms")
	// What Preprocess does beyond its three stages (item index, column
	// affinities); the stages ran separately above, so this is a
	// difference of two measurements, floored at zero.
	self := d.minus(stages)
	r.time("core.preprocess_self_ms", dur{max(self.ref, 0), max(self.raw, 0)}, "ms")

	path := filepath.Join(dir, "model.bin")
	if d, err = r.once("modelio.save", func() error { return modelio.SaveFile(path, rm) }); err != nil {
		return err
	}
	r.time("modelio.save_ms", d, "ms")
	size, err := fileSize(path)
	if err != nil {
		return err
	}
	r.set("modelio.file_bytes", size, "bytes")
	if d, err = r.median("modelio.load", 3, func() error { _, err := modelio.LoadFile(path); return err }); err != nil {
		return err
	}
	r.time("modelio.load_ms", d, "ms")

	cols := filepath.Join(dir, "cells.cols")
	if d, err = r.once("colstore.write", func() error { return colstore.WriteTable(cols, full, 0) }); err != nil {
		return err
	}
	r.time("colstore.write_ms", d, "ms")
	if size, err = fileSize(cols); err != nil {
		return err
	}
	r.set("colstore.bytes_per_csv_byte", size/float64(td.CSVBytes), "ratio")
	return nil
}

// selection replays the core calls behind each display of a script on the
// served model, sample caches warm.
func (r *replay) selection(m *core.Model, v *variant, sc *core.ScaleOptions) error {
	spec := core.ExploreSpec{K: viewK, L: viewL, Targets: v.Targets, Scale: sc}
	var first *core.SubTable
	sel := func(name string, spec core.ExploreSpec) (dur, error) {
		return r.median(name, selectReps, func() error {
			st, err := m.SelectExplore(spec)
			if first == nil {
				first = st
			}
			return err
		})
	}
	d, err := sel("core.select_warm", spec)
	if err != nil {
		return err
	}
	r.time("core.select_warm_ms", d, "ms")

	covered := spec
	covered.Covered = bitset.FromIndices(m.B.NumItems(), m.ViewItems(first))
	if d, err = sel("core.select_covered", covered); err != nil {
		return err
	}
	r.time("core.select_covered_ms", d, "ms")
	exact, residual := covered, covered
	exact.Where = []query.Predicate{v.Exact.query()}
	residual.Where = []query.Predicate{v.Residual.query()}
	if d, err = sel("core.select_filtered_exact", exact); err != nil {
		return err
	}
	r.time("core.select_filtered_exact_ms", d, "ms")
	if d, err = sel("core.select_filtered_residual", residual); err != nil {
		return err
	}
	r.time("core.select_filtered_residual_ms", d, "ms")

	row, col := first.SourceRows[v.AnchorRow%len(first.SourceRows)], m.T.ColumnIndex(v.AnchorCol)
	var scope []int
	if d, err = r.median("core.neighborhood", selectReps, func() (err error) { scope, err = m.Neighborhood(row, col, nil); return }); err != nil {
		return err
	}
	r.time("core.neighborhood_ms", d, "ms")
	r.set("core.neighborhood_rows", float64(len(scope)), "count")

	small := core.ExploreSpec{K: viewK, L: viewL, Scale: &core.ScaleOptions{}}
	for i := 0; i < min(exactRows, m.T.NumRows()); i++ {
		small.Scope = append(small.Scope, i)
	}
	if d, err = sel("core.select_exact", small); err != nil {
		return err
	}
	r.time("core.select_exact_ms", d, "ms")
	return nil
}

// vectors replays the numeric kernels under a select: pooling item vectors
// into tuple vectors for a sample of rows, and clustering them.
func (r *replay) vectors(m *core.Model) error {
	n, nc := min(sampleRows, m.T.NumRows()), m.T.NumCols()
	items := m.Emb.VectorMatrix()
	idx := make([]int32, n*nc)
	stride := m.T.NumRows() / n
	for i := 0; i < n; i++ {
		for c := 0; c < nc; c++ {
			idx[i*nc+c] = m.Emb.Index(m.B.Item(c, i*stride))
		}
	}
	vecs := f32.New(n, items.C)
	d, _ := r.median("f32.meanpool_rows", 5, func() error { f32.MeanPoolRows(vecs, items, idx, nc); return nil })
	r.time("f32.meanpool_rows_ms", d, "ms")
	i := 0
	d = r.batch("f32.sqdist", 200_000, func() { sink += f32.SqDist(vecs.Row(i%n), vecs.Row((i+7)%n)); i++ })
	r.time("f32.sqdist_ns", d, "ns")

	var res *cluster.Result
	d, _ = r.median("cluster.minibatch", 5, func() error {
		res = cluster.MiniBatchKMeans(vecs, viewK, cluster.MiniBatchOptions{Seed: 1})
		return nil
	})
	r.time("cluster.minibatch_ms", d, "ms")
	r.set("cluster.minibatch_iters", float64(res.Iterations), "count")
	small := f32.Wrap(min(exactRows, n), vecs.C, vecs.Data[:min(exactRows, n)*vecs.C])
	d, _ = r.median("cluster.kmeans_exact", 5, func() error { cluster.KMeansMatrix(small, viewK, cluster.Options{Seed: 1}); return nil })
	r.time("cluster.kmeans_exact_ms", d, "ms")
	return nil
}

// filters replays the predicate path of variant 0 over the served model's
// code source, and the cell gathers a paged display and a residual check
// need, on a column store holding the subject table.
func (r *replay) filters(m *core.Model, v *variant, dir string) error {
	exact, residual := []query.Predicate{v.Exact.query()}, []query.Predicate{v.Residual.query()}
	d := r.batch("binning.compile_filter", microReps, func() { m.B.CompileFilter(residual) })
	r.time("binning.compile_filter_us", d, "us")

	src := m.B.Source()
	var rows []int
	d, err := r.median("binning.scan_exact", selectReps, func() (err error) {
		rows, err = m.B.CompileFilter(exact).MatchingRows(src, 0, nil, 0)
		return
	})
	if err != nil {
		return err
	}
	r.time("binning.scan_exact_ms", d, "ms")
	r.rate("binning.scan_codes_per_s", float64(m.T.NumRows()), d, "1/s")
	r.set("binning.matched_rows", float64(len(rows)), "count")

	cs, err := colstore.Open(filepath.Join(dir, "cells.cols"))
	if err != nil {
		return err
	}
	defer cs.Close()
	var asked []int // the boundary-bin rows the filter had to read cells for
	d, err = r.median("binning.scan_residual", selectReps, func() (err error) {
		asked = asked[:0]
		_, err = m.B.CompileFilter(residual).MatchingRows(src, 0, func(col int, rows []int) ([]string, error) {
			asked = append(asked, rows...)
			return cs.GatherCells(col, rows)
		}, 0)
		return
	})
	if err != nil {
		return err
	}
	r.time("binning.scan_residual_ms", d, "ms")
	r.set("binning.residual_rows", float64(len(asked)), "count")

	if d, err = r.median("colstore.open", 5, func() error {
		s, err := colstore.Open(cs.Path())
		if err == nil {
			err = s.Close()
		}
		return err
	}); err != nil {
		return err
	}
	r.time("colstore.open_ms", d, "ms")
	col := m.T.ColumnIndex(v.Residual.Col)
	if d, err = r.median("colstore.gather_residual", selectReps, func() error { _, err := cs.GatherCells(col, asked); return err }); err != nil {
		return err
	}
	r.time("colstore.gather_residual_ms", d, "ms")
	view := make([]int, viewK)
	for i := range view {
		view[i] = i * (m.T.NumRows() / viewK)
	}
	if d, err = r.median("colstore.gather_view", 50, func() error {
		for c := 0; c < min(viewL, m.T.NumCols()); c++ {
			if _, err := cs.GatherCells(c, view); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.time("colstore.gather_view_us", d, "us")
	return nil
}

// codeStore replays writing, opening and streaming a code store that holds
// the subject table's codes.
func (r *replay) codeStore(m *core.Model, dir string) error {
	path := filepath.Join(dir, "codes.store")
	d, err := r.once("codestore.write", func() error { return m.ExportCodeStore(path, 0) })
	if err != nil {
		return err
	}
	r.time("codestore.write_ms", d, "ms")
	size, err := fileSize(path)
	if err != nil {
		return err
	}
	r.set("codestore.bytes_per_cell", size/float64(m.T.NumRows()*m.T.NumCols()), "bytes")
	var cs *codestore.Store
	if d, err = r.median("codestore.open", 5, func() (err error) {
		if cs != nil {
			cs.Close()
		}
		cs, err = codestore.Open(path)
		return
	}); err != nil {
		return err
	}
	defer cs.Close()
	r.time("codestore.open_ms", d, "ms")
	var scratch []uint16
	d, _ = r.median("codestore.scan", 5, func() error {
		for c := 0; c < cs.NumCols(); c++ {
			for blk := 0; blk < cs.NumBlocks(); blk++ {
				scratch = cs.ColumnBlock(c, blk, scratch)
				sink += float64(scratch[0])
			}
		}
		return nil
	})
	r.time("codestore.scan_ms", d, "ms")
	r.rate("codestore.scan_mib_per_s", float64(2*m.T.NumRows()*m.T.NumCols())/(1<<20), d, "MiB/s")
	return nil
}

// serving replays the service and store calls under an HTTP request.
func (r *replay) serving(sc *scene, out *outcome, td *tableData, v *variant, sc0 *core.ScaleOptions) error {
	svc := sc.st.svc
	d, err := r.median("serve.session_select", selectReps, func() error {
		info, err := svc.CreateSession(td.Name)
		if err != nil {
			return err
		}
		defer svc.DeleteSession(info.Session)
		_, err = svc.SessionSelect(info.Session, nil, viewK, viewL, v.Targets, sc0, nil)
		return err
	})
	if err != nil {
		return err
	}
	r.time("serve.session_select_ms", d, "ms")
	// Like with like: the HTTP selects of the same table kind and variant.
	kind := out.kind(td, 0)
	httpRef, httpRaw := median(out.t[inRef].op[opSelect][kind]), median(out.t[inRaw].op[opSelect][kind])
	r.set2("serve.http_select_ms", httpRef, httpRaw, "ms")
	r.set2("serve.http_overhead_ms", httpRef-ms(d.ref), httpRaw-ms(d.raw), "ms")
	r.set("serve.response_bytes", median(out.respBytes), "bytes")

	// A store over the same directory with nothing resident: Get is a
	// disk load, as after an eviction.
	if d, err = r.median("serve.store_reload", 3, func() error {
		cold := serve.NewStore(serve.StoreOptions{Dir: sc.st.dir})
		_, err := cold.Get(td.Name)
		return err
	}); err != nil {
		return err
	}
	r.time("serve.store_reload_ms", d, "ms")
	return nil
}

// small replays the calls too short to time one at a time.
func (r *replay) small(sc *scene) {
	mgr := session.NewManager(0)
	d := r.batch("session.create_delete", microReps, func() {
		if s, err := mgr.Create("t", 1, 256, 32); err == nil {
			mgr.Delete(s.ID)
		}
	})
	r.time("session.create_delete_us", d, "us")
	s, _ := mgr.Create("t", 1, 256, 32) // an empty manager never refuses
	items, rows, cols := make([]int, 60), make([]int, viewK), make([]int, viewL)
	for i := range items {
		items[i] = i * 4
	}
	d = r.batch("session.record_view", microReps, func() { s.RecordView(items, rows, cols) })
	r.time("session.record_view_us", d, "us")
	d = r.batch("memgov.admit", microReps, func() {
		if done, err := sc.st.gov.Admit(memgov.ClassRequests, 1<<20); err == nil {
			done()
		}
	})
	r.time("memgov.admit_ns", d, "ns")
}

// shards replays the sharded path's pieces on one of four cuts of the
// subject table's codes. No workload serves a sharded table end to end.
func (r *replay) shards(m *core.Model, dir string) error {
	codes, err := m.B.MaterializedCodes()
	if err != nil {
		return err
	}
	quarter := m.T.NumRows() / 4
	cut := make([][]uint16, len(codes))
	for c := range codes {
		cut[c] = codes[c][:quarter]
	}
	path := filepath.Join(dir, "shard0.store")
	if err := codestore.WriteFile(path, cut, 0); err != nil {
		return err
	}
	cs, err := codestore.Open(path)
	if err != nil {
		return err
	}
	defer cs.Close()
	cols := make([]int, m.T.NumCols())
	for i := range cols {
		cols[i] = i
	}
	budget := min(sampleRows, m.T.NumRows())
	var sum shard.Summary
	d, _ := r.median("shard.scan", 5, func() error { sum = shard.Scan(m.B, cs, 0, cols, budget/4, m.SampleSeed()); return nil })
	r.time("shard.scan_ms", d, "ms")
	d, _ = r.median("shard.merge", 5, func() error {
		strata, cands := shard.MergeSummaries([]shard.Summary{sum, sum, sum, sum}, m.B.NumItems())
		shard.FinishSample(strata, cands, budget)
		return nil
	})
	r.time("shard.merge_ms", d, "ms")
	resp := &shard.SampleResponse{Summary: sum, Rows: sum.CandidateRows(), Matched: quarter}
	resp.Codes = make([][]uint16, len(codes))
	for c := range codes {
		resp.Codes[c] = make([]uint16, len(resp.Rows))
		for i, row := range resp.Rows {
			resp.Codes[c][i] = codes[c][row]
		}
	}
	var wire []byte
	d, err = r.median("shard.wire_roundtrip", 20, func() error {
		wire = resp.Marshal()
		_, err := shard.UnmarshalSampleResponse(wire)
		return err
	})
	if err != nil {
		return err
	}
	r.time("shard.wire_roundtrip_us", d, "us")
	r.set("shard.summary_bytes", float64(len(wire)), "bytes")
	return nil
}
