package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"subtab/internal/core"
	"subtab/internal/metrics"
	"subtab/internal/query"
	"subtab/internal/rules"
	"subtab/internal/serve"
)

// How -seconds is shared out. A loop runs until its share is used up but
// never below its workload's sample floor (workloads.go); at the issue's
// table sizes the floors are what most loops end on.
const (
	phase1Share    = 0.6 // explore, one client
	phase2Share    = 0.2 // explore, min(nproc, 4) clients
	singleShare    = 0.4 // tenants: the visit loop
	maxLoadClients = 4
)

// config is the command line of one workload run.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool
	spans   string // span file written by a traced run ("" = none)
}

// Every duration is kept twice: in reference time (ref.go), which is what
// the metrics report, and as the clock read it, which is printed beside
// each metric and recorded by the calibration so the correction can be
// judged.
const (
	inRef = iota
	inRaw
	numBases
)

// timings is every duration one run measured, in one time base.
type timings struct {
	setup               float64         // s
	firstWall, firstCPU grouped         // s per upload → first display, by dataset
	op                  [numOps]grouped // ms, warm scripts only
	script              grouped         // ms, warm scripts
	reload              grouped         // ms, scripts whose model came from disk
	loopCPU             float64         // s of process CPU over the one-client loop
	loadWall            float64         // s the throughput phase's displays took
}

func newTimings() timings {
	t := timings{firstWall: grouped{}, firstCPU: grouped{}, script: grouped{}, reload: grouped{}}
	for op := range t.op {
		t.op[op] = grouped{}
	}
	return t
}

// outcome is everything one workload run measured.
type outcome struct {
	w    workload
	pace *pace
	t    [numBases]timings

	attempted, failed int
	displays          int // displays of the one-client loop (what loopCPU is divided by)
	loadDisplays      int // displays of the throughput phase
	loadClients       int
	respBytes         []float64
	qualitySum        float64 // combined score summed over qualityN scored displays
	qualityN          int
	diskRatio         float64
	servingRSSMiB     float64
	peakRSSMiB        float64
	digest            string
	errs              []string
	store             serve.StoreStats // the stack's counters at the end, for the report
	// storeFloor is the store counters' movement over the floor count of
	// scripts of the timed loop — a fixed amount of work, so it repeats
	// exactly at one seed however long the run lasts.
	storeFloor serve.StoreStats
	// traced-run extras
	tracedScript, untracedScript [numBases]grouped
	layers                       map[string]metricValue
	mineTime, combinedTime       time.Duration
}

// both applies fn to the reference-time and the raw timings; scale is the
// factor a measured duration is to be multiplied by in that base.
func (out *outcome) both(speed float64, fn func(t *timings, scale float64)) {
	fn(&out.t[inRef], speed)
	fn(&out.t[inRaw], 1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// kind names the group a script's latencies are summarised in: its dataset
// and variant — or, when many tables share a dataset and some are visited
// far more than others, its table, so that the figure is a mean over tables
// and not the luck of the most popular one.
func (out *outcome) kind(td *tableData, vi int) string {
	if out.w.zipf > 0 {
		return td.Name
	}
	return fmt.Sprintf("%s/v%d", td.Dataset, vi)
}

// count adds a script's ops to the run's totals and reports whether it
// passed; failed scripts are counted, never sampled.
func (out *outcome) count(res scriptResult) bool {
	out.attempted += res.Attempted
	out.failed += res.Failed
	return res.Failed == 0
}

// record counts one script of the one-client loop and samples it by class
// and kind.
func (out *outcome) record(c classed, td *tableData, vi int) {
	if !out.count(c.res) {
		return
	}
	out.displays += numOps
	kind := out.kind(td, vi)
	out.both(c.speed, func(t *timings, scale float64) {
		switch c.class {
		case classWarm:
			for op := range t.op {
				t.op[op].add(kind, ms(c.res.Op[op])*scale)
			}
			t.script.add(kind, ms(c.res.Total)*scale)
		case classReload:
			// A reload costs a model load and cold caches on top of the
			// script, and now and then a stall several times that; all the
			// reloads of one dataset share a kind, so that the figure is a
			// median of many and an outlier costs it nothing.
			t.reload.add(td.Dataset, ms(c.res.Total)*scale)
		}
		// The throughput of a one-client loop is its displays over the time
		// its scripts took; what the harness does between scripts (timing
		// the reference kernel, reading counters) is not served work.
		t.loadWall += c.res.Total.Seconds() * scale
	})
	if c.class == classWarm {
		out.respBytes = append(out.respBytes, float64(c.res.Bytes)/numOps)
	}
}

// scene is the set-up: a booted stack with its tables uploaded, checked
// and warmed.
type scene struct {
	st     *stack
	run    *runner
	out    *outcome
	tables []*tableData
}

// classed is one script's result, where its model came from, and the
// machine-speed factor its durations are to be scaled by.
type classed struct {
	res   scriptResult
	class string
	speed float64
}

// classified times the reference kernel, runs one script and classes it by
// the store counters around it; only valid while a single client drives
// the stack.
func (sc *scene) classified(td *tableData, vi int) classed {
	speed := sc.out.pace.tick()
	before := sc.st.store.Stats()
	res := sc.run.script(td, vi)
	after := sc.st.store.Stats()
	return classed{res, classify(after.DiskLoads-before.DiskLoads, after.Builds-before.Builds), speed}
}

// firstDisplayOps is what one first display sends: upload, open, select,
// close.
const firstDisplayOps = 4

// firstDisplay uploads td and reads its first 10×10 display; the wall and
// CPU seconds from upload-sent to display-read are a first-display sample.
// Any failure ends the run.
func (sc *scene) firstDisplay(td *tableData, replace bool) error {
	out, w := sc.out, sc.out.w
	mark := out.pace.mark()
	out.pace.ticks(refWindow)
	cpu0, start := cpuSeconds(), time.Now()
	if err := out.pace.during(func() error { return sc.st.upload(td, w.paged, replace) }); err != nil {
		return err
	}
	status, resp, _, err := sc.st.post("/v1/sessions", mustJSON(map[string]string{"table": td.Name}))
	if err != nil || status != 201 {
		return fmt.Errorf("first display of %s: open: status %d err %v", td.Name, status, err)
	}
	var sess struct{ Session string }
	if err := json.Unmarshal(resp, &sess); err != nil {
		return err
	}
	v := &td.Variants[0]
	status, resp, _, err = sc.st.post("/v1/sessions/"+sess.Session+"/select", v.selectBodies(w.threshold)[0])
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	out.pace.ticks(refWindow)
	speed := out.pace.factorSince(mark)
	if err != nil || status != 200 {
		return fmt.Errorf("first display of %s: select: status %d err %v", td.Name, status, err)
	}
	var d display
	if err := json.Unmarshal(resp, &d); err != nil {
		return err
	}
	if !sc.run.checkDisplay(td, 0, opSelect, &d, nil, min(viewK, td.Rows)) {
		return fmt.Errorf("first display of %s: %s", td.Name, strings.Join(sc.run.errs, "; "))
	}
	if status, _, _, err := sc.st.call("DELETE", "/v1/sessions/"+sess.Session, nil, 0); err != nil || status != 200 {
		return fmt.Errorf("first display of %s: close: status %d err %v", td.Name, status, err)
	}
	out.attempted += firstDisplayOps
	out.both(speed, func(t *timings, scale float64) {
		t.firstWall.add(td.Dataset, wall*scale)
		t.firstCPU.add(td.Dataset, cpu*scale)
		if w.ingest {
			// An ingest cycle is part of the timed loop: its display, its
			// time and its CPU count towards throughput and cost.
			t.loadWall += wall * scale
			t.loopCPU += cpu * scale
		}
	})
	if w.ingest {
		out.displays++
	}
	return nil
}

// tableName fixes the name of table i of a workload; an ingest workload
// replaces one table over and over.
func tableName(w workload, i int) string {
	if w.ingest {
		return "t"
	}
	return fmt.Sprintf("t%02d", i)
}

// generateTable makes table i of a workload — or, on an ingest workload,
// the table of cycle i — from its own stream of the seed, so no two tables
// and no two cycles of a run see the same data.
func generateTable(w workload, cfg config, dir string, i int) (*tableData, error) {
	csv := filepath.Join(dir, fmt.Sprintf("t%02d.csv", i))
	return generate(csv, tableName(w, i), w.datasets[i%len(w.datasets)], w.rows, mix(cfg.seed, 16+i))
}

// settle makes sure each variant's exact predicate compiles to a code-only
// filter and each residual one does not, against the binning the server
// actually computed: a category in a column's "other" bin is not decidable
// from codes, and a bound that sits on a bin cut is. Either moves to its
// next candidate — the next (column, value) pair, the next gap between
// data values — which depends on the served model but not on the run.
func (sc *scene) settle(td *tableData) error {
	m, err := sc.st.svc.Model(td.Name)
	if err != nil {
		return err
	}
	exact := func(p predicate) bool {
		return m.B.CompileFilter([]query.Predicate{p.query()}).Exact()
	}
	for vi := range td.Variants {
		v := &td.Variants[vi]
		for try := 0; !exact(v.Exact); try++ {
			if try == len(td.exact) {
				return fmt.Errorf("%s/v%d: no code-only predicate among %d candidates", td.Name, vi, len(td.exact))
			}
			v.Exact = td.exact[(v.exactIdx+try+1)%len(td.exact)].pred
		}
		for skip := 1; exact(v.Residual); skip++ {
			if skip > 16 {
				return fmt.Errorf("%s/v%d: no residual bound on %s near quantile %.2f", td.Name, vi, v.Residual.Col, v.quantile)
			}
			v.Residual.Num = boundAt(td.Num[v.Residual.Col], v.quantile, skip)
		}
		v.exactRows, v.residualRows = td.matching(v.Exact), td.matching(v.Residual)
		if err := sc.chooseAnchor(m, td, v); err != nil {
			return err
		}
	}
	return nil
}

// chooseAnchor fixes the cell a variant's drill-down expands: of the k×l
// cells of the variant's first view, the one whose bin holds the share of
// the table closest to the variant's rung of the quantile ladder the
// residual bounds use. Which cell a script drills into decides how many
// rows the next select clusters, and so what the drill-down costs; left to
// a position in the view, that size swung from 3 % to 60 % of the table
// from seed to seed and the metric with it. The view is computed
// in-process — a fresh session's first select is a pure function of the
// model and the request, so it is the view the HTTP script will get.
func (sc *scene) chooseAnchor(m *core.Model, td *tableData, v *variant) error {
	spec := core.ExploreSpec{K: viewK, L: viewL, Targets: v.Targets}
	if sc.run.threshold > 0 {
		spec.Scale = &core.ScaleOptions{Threshold: sc.run.threshold}
	}
	st, err := m.SelectExplore(spec)
	if err != nil {
		return fmt.Errorf("%s: choosing a drill-down anchor: %w", td.Name, err)
	}
	counts := m.BinCountsData()
	best := math.Inf(1)
	for i, row := range st.SourceRows {
		for _, c := range st.ColIdx {
			share := float64(counts[c][m.B.Code(c, row)]) / float64(td.Rows)
			if d := math.Abs(share - v.quantile); d < best {
				best, v.AnchorRow, v.AnchorCol = d, i, m.T.ColumnAt(c).Name
			}
		}
	}
	return nil
}

// setUp boots a stack under dir and makes the workload's inputs. An explore
// or tenants workload uploads its tables, reads their first displays,
// settles their variants and runs every variant once on the first few of
// them, untimed: that warms the caches, and its displays are what the
// quality score is made from. An ingest workload generates the table of
// every cycle here, so that its timed loop is uploads and scripts only.
func setUp(w workload, cfg config, dir string, out *outcome) (*scene, error) {
	storeDir, csvDir := filepath.Join(dir, "store"), filepath.Join(dir, "csv")
	for _, d := range []string{storeDir, csvDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	sc := &scene{out: out}
	n := w.tables
	if w.ingest {
		n = w.scripts
	}
	for i := 0; i < n; i++ {
		out.pace.tick()
		td, err := generateTable(w, cfg, csvDir, i)
		if err != nil {
			return nil, err
		}
		sc.tables = append(sc.tables, td)
	}
	sc.st = boot(storeDir, w.maxModels)
	sc.run = newRunner(sc.st, w.threshold, nil)
	if w.ingest {
		return sc, nil
	}
	for _, td := range sc.tables {
		err := sc.firstDisplay(td, false)
		if err == nil {
			err = sc.settle(td)
		}
		if err != nil {
			sc.st.close()
			return nil, err
		}
	}
	for _, td := range sc.tables[:min(qualityTables, len(sc.tables))] {
		if err := sc.scoreTable(td, true); err != nil {
			sc.st.close()
			return nil, err
		}
	}
	return sc, nil
}

// runWorkload is one fresh-process run of one workload.
func runWorkload(w workload, cfg config, procStart time.Time, p *pace) (*outcome, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		w.reloads = min(w.reloads, 1) // a traced run is for the layers and the cost of tracing
	}
	out := &outcome{w: w, pace: p}
	for b := range out.t {
		out.t[b] = newTimings()
		out.tracedScript[b], out.untracedScript[b] = grouped{}, grouped{}
	}
	sc, err := setUp(w, cfg, root, out)
	if err != nil {
		return nil, err
	}
	defer func() { sc.st.close() }()
	runtime.GC()
	debug.FreeOSMemory()
	setup := time.Since(procStart).Seconds()
	out.both(p.factorSince(0), func(t *timings, scale float64) { t.setup = setup * scale })

	switch {
	case w.ingest:
		err = out.ingestLoop(sc, tr)
	case w.zipf > 0:
		out.visitLoop(sc, cfg, tr)
	default:
		out.exploreLoop(sc, cfg, tr)
	}
	if err != nil {
		return nil, err
	}
	// What the process holds with its tables served and its caches warm,
	// garbage collected and returned: unlike the high-water mark, which is
	// set by how a collection happened to race one pre-process, this
	// repeats.
	runtime.GC()
	debug.FreeOSMemory()
	out.servingRSSMiB = residentMiB()
	if w.reloads > 0 && !w.ingest { // tenants reload in their loop, ingest in its cycles
		out.reloadPhase(sc)
	}
	subject := sc.tables[0]
	if w.ingest {
		subject = sc.tables[len(sc.tables)-1] // the table being served
	}
	if out.diskRatio, err = diskRatio(sc, w); err != nil {
		return nil, err
	}
	out.digest = sc.run.digest(subject.Name)
	out.store = sc.st.store.Stats()
	out.checkGovernor(sc)
	if cfg.trace {
		if out.layers, err = replayLayers(sc, out, tr, subject, root); err != nil {
			return nil, err
		}
		if cfg.spans != "" {
			if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
				return nil, err
			}
			if err := tr.writeFile(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	out.errs = sc.run.errs
	out.peakRSSMiB = peakRSSMiB()
	return out, p.err
}

func statsSince(now, then serve.StoreStats) serve.StoreStats {
	return serve.StoreStats{
		Hits:      now.Hits - then.Hits,
		DiskLoads: now.DiskLoads - then.DiskLoads,
		Builds:    now.Builds - then.Builds,
		Evictions: now.Evictions - then.Evictions,
	}
}

// traceRound alternates span recording on and off by round in a traced
// run, so tracing overhead is the ratio of two medians from one process.
func (out *outcome) traceRound(sc *scene, tr *tracer, round int) bool {
	traced := tr != nil && round%2 == 1
	sc.run.tr = nil
	if traced {
		sc.run.tr = tr
	}
	return traced
}

func (out *outcome) noteTraced(c classed, traced bool, tr *tracer, td *tableData, vi int) {
	if tr == nil || c.res.Failed > 0 || c.class != classWarm {
		return
	}
	into := &out.untracedScript
	if traced {
		into = &out.tracedScript
	}
	into[inRef].add(out.kind(td, vi), ms(c.res.Total)*c.speed)
	into[inRaw].add(out.kind(td, vi), ms(c.res.Total))
}

// exploreLoop is the timed part of the explore workloads. Phase 1: one
// client runs whole rounds of the eight variants on each table (every
// latency metric and the CPU cost come from here). Phase 2, in traced runs
// only: min(nproc, 4) clients run rounds concurrently (throughput).
func (out *outcome) exploreLoop(sc *scene, cfg config, tr *tracer) {
	perRound := len(sc.tables) * numVariants
	minR := (out.w.scripts + perRound - 1) / perRound
	mark := out.pace.mark()
	cpu0, start := cpuSeconds(), time.Now()
	budget := time.Duration(cfg.seconds * phase1Share * float64(time.Second))
	store0 := sc.st.store.Stats()
	for round := 0; round < minR || (!cfg.short && time.Since(start) < budget); round++ {
		if round == minR {
			out.storeFloor = statsSince(sc.st.store.Stats(), store0)
		}
		traced := out.traceRound(sc, tr, round)
		for vi := 0; vi < numVariants; vi++ {
			for _, td := range sc.tables {
				c := sc.classified(td, vi)
				out.record(c, td, vi)
				out.noteTraced(c, traced, tr, td, vi)
			}
		}
	}
	sc.run.tr = nil
	cpu := cpuSeconds() - cpu0
	out.both(out.pace.factorSince(mark), func(t *timings, scale float64) { t.loopCPU = cpu * scale })
	if tr == nil {
		return // throughput under load is a per-layer figure: traced runs only
	}
	out.both(1, func(t *timings, _ float64) { t.loadWall = 0 }) // phase 2's alone

	// Phase 2 runs in bursts: every client runs one script per table, all
	// wait for the last, the kernel is timed, and the next burst starts.
	// The kernel cannot be timed while the clients load every core, and the
	// machine's speed moves within seconds, so each burst is paced by the
	// timings on either side of it. The clients deal the eight variants out
	// between them burst by burst; a round ends when every variant has run
	// equally often, and only whole rounds are measured, so the work behind
	// the figure is the same in every run.
	clients := min(runtime.NumCPU(), maxLoadClients)
	bursts := numVariants
	for _, n := range []int{2, 4, 8} {
		if clients%n == 0 {
			bursts = numVariants / n
		}
	}
	budget = time.Duration(cfg.seconds * phase2Share * float64(time.Second))
	per := make([]scriptResult, clients)
	out.pace.ticks(refWindow)
	start = time.Now()
	for round := 0; round < 1 || (!cfg.short && time.Since(start) < budget); round++ {
		for burst := 0; burst < bursts; burst++ {
			mark = out.pace.mark() - refWindow
			var wg sync.WaitGroup
			t0 := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, td := range sc.tables {
						res := sc.run.script(td, (burst*clients+c)%numVariants)
						per[c].Attempted += res.Attempted
						per[c].Failed += res.Failed
					}
				}(c)
			}
			wg.Wait()
			wall := time.Since(t0).Seconds()
			out.pace.ticks(refWindow)
			out.both(out.pace.factorSince(mark), func(t *timings, scale float64) { t.loadWall += wall * scale })
			out.loadDisplays += clients * len(sc.tables) * numOps
		}
	}
	for c := range per {
		out.count(per[c])
	}
	out.loadClients = clients
}

// visitLoop is the timed part of the multi-tenant workload: one client,
// visit i runs variant i mod 8 on the table the seeded Zipf draw names
// (popularity drifts, see zipfTables). With one client the hit/reload
// sequence is a pure function of the seed.
func (out *outcome) visitLoop(sc *scene, cfg config, tr *tracer) {
	minV := out.w.scripts
	// More draws than any run can use; the loop stops on time.
	order := zipfTables(cfg.seed, out.w.zipf, len(sc.tables), out.w.maxModels, 1<<16)
	mark := out.pace.mark()
	cpu0, start := cpuSeconds(), time.Now()
	budget := time.Duration(cfg.seconds * singleShare * float64(time.Second))
	store0 := sc.st.store.Stats()
	for i := 0; i < len(order) && (i < minV || (!cfg.short && time.Since(start) < budget)); i++ {
		if i == minV {
			out.storeFloor = statsSince(sc.st.store.Stats(), store0)
		}
		traced := out.traceRound(sc, tr, i/numVariants)
		c := sc.classified(sc.tables[order[i]], i%numVariants)
		out.record(c, sc.tables[order[i]], i%numVariants)
		out.noteTraced(c, traced, tr, sc.tables[order[i]], i%numVariants)
	}
	sc.run.tr = nil
	cpu := cpuSeconds() - cpu0
	out.both(out.pace.factorSince(mark), func(t *timings, scale float64) { t.loopCPU = cpu * scale })
	out.loadDisplays = out.displays
	out.loadClients = 1
}

// ingestLoop is the timed part of the ingest workload: each cycle uploads
// the next generated table over the previous one and reads its first
// display, then runs a few scripts on it and twice restarts the stack for a
// reload sample.
// Settling the variants and scoring the displays are the harness's own work
// and stay outside every timed interval.
func (out *outcome) ingestLoop(sc *scene, tr *tracer) error {
	store0 := sc.st.store.Stats()
	for c, td := range sc.tables {
		traced := out.traceRound(sc, tr, c)
		sc.run.forget(td.Name) // new data under the old name
		if err := sc.firstDisplay(td, c > 0); err != nil {
			return err
		}
		if err := sc.settle(td); err != nil {
			return err
		}
		// The first script on a fresh table fills its caches; counted and
		// checked like any other, but not sampled with the warm ones.
		out.count(sc.classified(td, c%numVariants).res)
		mark := out.pace.mark()
		cpu0 := cpuSeconds()
		for i := 0; i < out.w.perCycle; i++ {
			vi := (c*out.w.perCycle + i) % numVariants
			cl := sc.classified(td, vi)
			out.record(cl, td, vi)
			out.noteTraced(cl, traced, tr, td, vi)
		}
		cpu := cpuSeconds() - cpu0
		out.both(out.pace.factorSince(mark), func(t *timings, scale float64) { t.loopCPU += cpu * scale })
		sc.run.tr = nil
		if err := sc.scoreTable(td, false); err != nil {
			return err
		}
		// Reload samples in every cycle, so that they come from as many
		// tables as the run has cycles: one table's luck with k-means moved
		// the median of sixteen restarts on the last table alone by 28 %
		// from seed to seed.
		for i := 0; i < out.w.reloads; i++ {
			out.reboot(sc, out.w.maxModels)
			out.reloadSample(sc, td, (c*out.w.reloads+i)%numVariants)
		}
	}
	out.storeFloor = statsSince(sc.st.store.Stats(), store0)
	out.loadDisplays = out.displays
	out.loadClients = 1
	return nil
}

// checkGovernor fails the run if the stack's governor ever refused or
// reclaimed: its budget is meant never to bind.
func (out *outcome) checkGovernor(sc *scene) {
	if gs := sc.st.gov.Stats(); gs.Rejected != 0 || gs.Reclaims != 0 {
		out.failed++
		sc.run.fail("governor budget bound: %d rejected, %d reclaims", gs.Rejected, gs.Reclaims)
	}
}

// reboot shuts the stack down and boots it again over the same store
// directory, as a restarted server would be.
func (out *outcome) reboot(sc *scene, maxModels int) {
	out.checkGovernor(sc) // the new stack's governor starts from nothing
	sc.st.close()
	sc.st = boot(sc.st.dir, maxModels)
	sc.run.st = sc.st
}

// reloadSample runs one script that must find its model on disk, not in
// memory: a reload sample on workloads whose cache never evicts in the
// timed loop. It counts towards neither throughput nor CPU cost.
func (out *outcome) reloadSample(sc *scene, td *tableData, vi int) {
	c := sc.classified(td, vi)
	if c.class != classReload && c.res.Failed == 0 {
		out.failed++
		sc.run.fail("%s/v%d: script on an unloaded model was %s, want %s", td.Name, vi, c.class, classReload)
	}
	if !out.count(c.res) {
		return
	}
	out.both(c.speed, func(t *timings, scale float64) { t.reload.add(td.Dataset, ms(c.res.Total)*scale) })
}

// reloadPhase takes the explore workloads' reload samples after their timed
// loop: the stack is rebooted with room for a single model and scripts go
// round the tables, so each finds its model evicted and loads it from disk
// — what a visit to an evicted tenant pays, on big tables, and without a
// new server and a new connection in every sample.
func (out *outcome) reloadPhase(sc *scene) {
	out.reboot(sc, 1)
	for i := 0; i < out.w.reloads; i++ {
		out.reloadSample(sc, sc.tables[i%len(sc.tables)], i/len(sc.tables)%numVariants)
	}
}

// qualityTables caps how many of a set-up's tables are scored.
const qualityTables = 8

// scoreTable adds the displays of td on record to the run's quality score:
// the paper's combined measure (cell coverage + diversity, α = 0.5) of
// every display of every variant that ran; with runMissing it first runs,
// untimed, the variants that have not. The score a run reports is the mean
// over all scored displays of all scored tables, because a single display's
// score moves with the data the seed drew (0.48–0.64 over eight seeds of
// one table) far more than the mean does. Rules are mined from the served
// model, so no second pre-process runs.
func (sc *scene) scoreTable(td *tableData, runMissing bool) error {
	out := sc.out
	for vi := 0; runMissing && vi < numVariants; vi++ {
		if sc.run.ran(td.Name, vi) {
			continue
		}
		out.pace.tick()
		if !out.count(sc.run.script(td, vi)) {
			return fmt.Errorf("scoring %s: %s", td.Name, strings.Join(sc.run.errs, "; "))
		}
	}
	m, err := sc.st.svc.Model(td.Name)
	if err != nil {
		return err
	}
	start := time.Now()
	rs, err := rules.Mine(m.B, rules.Options{MaxRules: 2000})
	if err != nil {
		return err
	}
	out.mineTime = time.Since(start)
	ev := metrics.NewEvaluator(m.B, rs, 0.5)
	for _, d := range sc.run.displays(td.Name) {
		st := metrics.SubTable{Rows: d.Rows}
		for _, c := range d.Cols {
			st.Cols = append(st.Cols, m.T.ColumnIndex(c))
		}
		start = time.Now()
		out.qualitySum += ev.Combined(st)
		out.combinedTime = time.Since(start)
		out.qualityN++
	}
	return nil
}

// diskRatio is the bytes under the store directory per CSV byte of the
// tables it holds: all of them, or on an ingest workload the last one,
// which has replaced the others.
func diskRatio(sc *scene, w workload) (float64, error) {
	disk, err := dirBytes(sc.st.dir)
	if err != nil {
		return 0, err
	}
	held := sc.tables
	if w.ingest {
		held = held[len(held)-1:]
	}
	var csv int64
	for _, td := range held {
		csv += td.CSVBytes
	}
	return float64(disk) / float64(csv), nil
}
