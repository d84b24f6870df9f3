package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 75}, {99, 75}, {104, 90}, {120, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(120 - i) // 1..120, unsorted
	}
	s := summarize(xs)
	if s.N != 120 || s.Median != 60.5 || s.UpperPct != 90 || math.Abs(s.Upper-108.1) > 1e-9 {
		t.Errorf("summarize(1..120) = %+v", s)
	}
	// At least minBeyond samples lie strictly beyond the reported value.
	beyond := 0
	for _, x := range xs {
		if x > s.Upper {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("%d samples beyond p%g, want at least %d", beyond, s.UpperPct, minBeyond)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// The acceptance check computes spread with Python's
// statistics.quantiles(xs, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %g, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},   // nested child with its own child
		{Name: "a1", StartNS: 15, EndNS: 25, Parent: 1},  // grandchild: counts against a, not root
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},   // overlaps a by 10
		{Name: "c", StartNS: 90, EndNS: 120, Parent: 0},  // sticks out of the parent by 20
		{Name: "d", StartNS: 35, EndNS: 38, Parent: 0},   // wholly inside a∪b
		{Name: "open", StartNS: 5, EndNS: -1, Parent: 0}, // never closed: covers nothing
	}
	got := selfTimes(spans)
	// root: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40.
	want := []int64{40, 20, 10, 30, 30, 3}
	if !reflect.DeepEqual(got[:6], want) {
		t.Errorf("selfTimes = %v, want %v", got[:6], want)
	}
	tot := totals(spans)
	if _, ok := tot["open"]; ok {
		t.Error("an unclosed span was aggregated")
	}
	if tot["root"] != (layerTotals{Count: 1, WallNS: 100, SelfNS: 40}) {
		t.Errorf("totals[root] = %+v", tot["root"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1, tr.newTrace())
	tr.end(id) // must not panic
	real := newTracer()
	root := real.start("root", -1, real.newTrace())
	child := real.start("child", root, 1)
	real.end(child)
	real.end(root)
	if len(real.spans) != 2 || real.spans[1].Parent != root || real.spans[0].EndNS < real.spans[1].EndNS {
		t.Errorf("spans = %+v", real.spans)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		loads, builds int64
		want          string
	}{{0, 0, classWarm}, {1, 0, classReload}, {2, 0, classMixed}, {0, 1, classMixed}, {1, 1, classMixed}, {-1, 0, classMixed}} {
		if got := classify(tc.loads, tc.builds); got != tc.want {
			t.Errorf("classify(%d, %d) = %s, want %s", tc.loads, tc.builds, got, tc.want)
		}
	}
}

// A script is sampled once per time base: scaled by the machine speed
// measured before it in reference time, untouched as the clock read it; a
// failed script is counted and never sampled.
func TestRecordKeepsBothTimeBases(t *testing.T) {
	w, _ := workloadByName("tenants_evict_40")
	out := &outcome{w: w}
	for b := range out.t {
		out.t[b] = newTimings()
	}
	td := &tableData{Name: "t03", Dataset: "CY"}
	res := scriptResult{Attempted: 6, Total: 10 * time.Millisecond}
	res.Op[opSelect] = 4 * time.Millisecond
	out.record(classed{res, classWarm, 0.5}, td, 2)
	out.record(classed{res, classReload, 0.5}, td, 2)
	failed := res
	failed.Failed = 1
	out.record(classed{failed, classWarm, 0.5}, td, 2)
	if out.attempted != 18 || out.failed != 1 || out.displays != 2*numOps {
		t.Errorf("attempted %d failed %d displays %d", out.attempted, out.failed, out.displays)
	}
	ref, raw := &out.t[inRef], &out.t[inRaw]
	if got := ref.script["t03"]; len(got) != 1 || got[0] != 5 {
		t.Errorf("reference-time warm scripts of t03 = %v, want [5]", got)
	}
	if got := raw.op[opSelect]["t03"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("raw selects of t03 = %v, want [4]", got)
	}
	if got := raw.reload["CY"]; len(got) != 1 || got[0] != 10 {
		t.Errorf("raw reloads of CY = %v, want [10]", got)
	}
	// Throughput time is the scripts' own, both classes, in each base.
	if math.Abs(ref.loadWall-0.010) > 1e-12 || math.Abs(raw.loadWall-0.020) > 1e-12 {
		t.Errorf("loadWall = %g ref, %g raw, want 0.010 and 0.020", ref.loadWall, raw.loadWall)
	}
}

// The kernel is timed at both ends of a script and, through a long call,
// on every beat of the metronome.
func TestPaceDuringALongCall(t *testing.T) {
	calls := 0
	p := &pace{kernel: func() (float64, error) { calls++; return float64(2 * refNominal), nil }}
	if f := p.tick(); f != 0.5 {
		t.Errorf("factor = %g with the kernel at twice nominal, want 0.5", f)
	}
	mark := p.mark()
	if err := p.during(func() error { time.Sleep(2*metronome + metronome/2); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := p.mark() - mark; got < 2 || got > 3 {
		t.Errorf("%d kernel timings through 2.5 beats", got)
	}
	if p.factorSince(mark) != 0.5 || p.factorSince(p.mark()) != 1 {
		t.Errorf("factorSince = %g, and %g over no timings (want 1)", p.factorSince(mark), p.factorSince(p.mark()))
	}
}

// bodies renders every request body a table's variants fix in advance.
func bodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	td, err := generate(filepath.Join(t.TempDir(), "t.csv"), "t", "FL", 600, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := range td.Variants {
		b := td.Variants[i].selectBodies(100)
		out = append(out, b[:]...)
	}
	return out
}

func TestVariantsFollowTheSeed(t *testing.T) {
	a, b, c := bodies(t, 7), bodies(t, 7), bodies(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different request bodies")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, identical request bodies")
	}
	for _, body := range a {
		var got selectBody
		if err := json.Unmarshal(body, &got); err != nil || got.K != viewK || got.L != viewL || got.Scale.Threshold != 100 {
			t.Errorf("body %s: %+v, %v", body, got, err)
		}
	}
}

func TestVariantsCoverTheSelectivityLadder(t *testing.T) {
	td, err := generate(filepath.Join(t.TempDir(), "t.csv"), "t", "FL", 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	var qs []float64
	for i := range td.Variants {
		v := &td.Variants[i]
		qs = append(qs, v.quantile)
		share := float64(td.matching(v.Residual)) / float64(td.Rows)
		if share < 0.04 || share > 0.55 {
			t.Errorf("variant %d: residual predicate %+v selects %.3f of the rows", i, v.Residual, share)
		}
		if n := td.matching(v.Exact); n < viewK {
			t.Errorf("variant %d: exact predicate %+v selects %d rows", i, v.Exact, n)
		}
	}
	sort.Float64s(qs)
	ladder := sortedCopy(residualQuantiles[:])
	if !reflect.DeepEqual(qs, ladder) {
		t.Errorf("quantiles %v, want each rung of %v once", qs, residualQuantiles)
	}
}

func TestGroupedIsSteadyUnderAMixtureShift(t *testing.T) {
	// Two kinds of script, one ten times the other. Pooled, the median
	// jumps between the modes with the mixture; grouped, it does not move.
	fast, slow := []float64{9, 10, 11}, []float64{90, 100, 110, 400}
	g := grouped{}
	for _, x := range fast {
		g.add("fast", x)
	}
	for i := 0; i < 5; i++ { // the slow kind is sampled five times as often
		for _, x := range slow {
			g.add("slow", x)
		}
	}
	if got := g.typical(); got != (10+105)/2.0 {
		t.Errorf("typical = %g, want the mean of the kinds' medians, 57.5", got)
	}
	if g.n() != 23 {
		t.Errorf("n = %d", g.n())
	}
	if pct, _ := g.tailFactor(); pct != 0 {
		t.Errorf("tail reported at p%g from %d samples", pct, g.n())
	}
	// With enough samples the tail is relative to each kind's own median:
	// one kind being ten times slower adds nothing to it.
	big := grouped{}
	for i := 0; i < 60; i++ {
		big.add("fast", 10)
		big.add("slow", 100)
	}
	for i := 0; i < 15; i++ { // 15 of 135 samples stalled to twice their kind's median
		big.add("fast", 20)
	}
	if pct, f := big.tailFactor(); pct != tailPct || f != 2 {
		t.Errorf("tailFactor = p%g ×%g, want p90 ×2", pct, f)
	}
	if (grouped{}).typical() != 0 {
		t.Error("empty grouped is not zero")
	}
}

func TestZipfTables(t *testing.T) {
	const n = 4 * epochVisits
	a, b, c := zipfTables(1, 1.1, 40, 10, n), zipfTables(1, 1.1, 40, 10, n), zipfTables(2, 1.1, 40, 10, n)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("zipf draws do not follow the seed")
	}
	// Within an epoch the draws are skewed to that epoch's head; over four
	// epochs of ten hot tables each of the forty has been the head's.
	for epoch := 0; epoch < 4; epoch++ {
		counts := make([]int, 40)
		for _, i := range a[epoch*epochVisits : (epoch+1)*epochVisits] {
			if i < 0 || i >= 40 {
				t.Fatalf("table %d out of range", i)
			}
			counts[i]++
		}
		head := epoch * 10
		if counts[head] <= counts[head+9] || counts[head] < epochVisits/8 {
			t.Errorf("epoch %d is not skewed to table %d: %v", epoch, head, counts)
		}
	}
}

// The served stack is configured without reference to the benchmark seed:
// boot takes none, and the pipeline seeds are the server's default 1.
func TestServerNeverSeesTheSeed(t *testing.T) {
	st := boot(t.TempDir(), 2)
	defer st.close()
	if o := st.opt; o.Bins.Seed != 1 || o.Corpus.Seed != 1 || o.Embedding.Seed != 1 || o.ClusterSeed != 1 {
		t.Errorf("pipeline seeds = %d %d %d %d, want 1", o.Bins.Seed, o.Corpus.Seed, o.Embedding.Seed, o.ClusterSeed)
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile %+v\ncode %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile %+v\ncode %+v", f.PerLayer, perLayer)
	}
}

// A tenth-size traced run of the smallest workload: the harness runs, every
// op passes its checks, and every declared metric is produced.
func TestShortRunProducesEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	t.Chdir(t.TempDir())
	w, _ := workloadByName("tenants_evict_40")
	// The reference kernel is a helper process; here a constant stands in.
	still := &pace{kernel: func() (float64, error) { return float64(refNominal), nil }}
	out, err := runWorkload(w.shrunk(), config{seed: 5, seconds: 0.2, trace: true, short: true}, time.Now(), still)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", out.failed, out.attempted, out.errs)
	}
	for _, d := range perLayer {
		if _, ok := out.layers[d.Name]; !ok {
			t.Errorf("traced run did not produce %s", d.Name)
		}
	}
	if len(out.layers) != len(perLayer) {
		t.Errorf("traced run produced %d metrics, %d are declared", len(out.layers), len(perLayer))
	}
	have := map[string]bool{}
	for _, l := range out.endToEndLines(inRef) {
		have[l.name] = true
	}
	for _, d := range endToEnd {
		if !have[d.Name] {
			t.Errorf("no end-to-end line for %s", d.Name)
		}
	}
}
