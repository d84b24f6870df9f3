package main

// workload is one set of inputs and the loop that drives them. Every
// workload runs the same exploration script (see script.go) against the
// same serving stack; they differ in how big the tables are, where their
// codes and cells live, whether the model cache holds them all, and
// whether the upload is inside the timed loop.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	datasets []string // generator per table, rotated
	tables   int
	rows     int
	paged    bool // upload with store=1: codes in codestore, cells in colstore
	// maxModels is the store's in-memory LRU bound; below tables it forces
	// evictions and disk reloads inside the timed loop.
	maxModels int
	// threshold is sent as scale.threshold on every select-shaped request:
	// 1 puts every display on the scaled path (stratified sample, mini-batch
	// k-means) however few rows a predicate leaves, 0 on the exact path.
	threshold int
	ingest    bool    // every timed cycle uploads a fresh table first
	zipf      float64 // > 0: scripts visit tables by seeded Zipf(zipf)

	// Sample floors. The timed loops run until their share of -seconds is
	// used up, but never fewer than these counts, so every reported
	// percentile keeps its samples even on a slow machine. They are what
	// the time cap allows at these table sizes: 100 samples per operation
	// and 10 ingest cycles are the least the issue accepts.
	scripts  int // explore: phase-1 scripts; tenants: visits; ingest: cycles
	perCycle int // ingest: sampled scripts after each cycle's first display
	reloads  int // reload samples taken outside the loop: after it, by eviction (explore); in every cycle, by restart (ingest)
}

var workloads = []workload{
	{
		name:      "explore_resident_4x20k",
		why:       "four FL tables of 20k rows with codes and cells in RAM: core sampling, clustering and the binning filter scan do the work, the storage layers none",
		datasets:  []string{"FL"},
		tables:    4,
		rows:      20_000,
		maxModels: 8,
		threshold: 1,
		scripts:   128,
		reloads:   32,
	},
	{
		name:      "explore_paged_4x40k",
		why:       "four FL tables of 40k rows served from mmap'd code and column stores: every sample, filter and render streams or gathers store blocks, so scan bandwidth is the cost",
		datasets:  []string{"FL"},
		tables:    4,
		rows:      40_000,
		paged:     true,
		maxModels: 8,
		threshold: 1,
		scripts:   128,
		reloads:   32,
	},
	{
		name:      "ingest_paged_15k",
		why:       "cold cycles of upload, pre-process, store export and first display: the write side of the storage layers plus table, binning, corpus and word2vec",
		datasets:  []string{"FL"},
		tables:    1,
		rows:      15_000,
		paged:     true,
		maxModels: 8,
		threshold: 1,
		ingest:    true,
		scripts:   10,
		perCycle:  10,
		reloads:   2,
	},
	{
		name:      "tenants_evict_40",
		why:       "40 small tables under a 10-model cache visited by Zipf: store LRU, modelio load and memgov do most of the work and core little",
		datasets:  []string{"FL", "CY", "BL"},
		tables:    40,
		rows:      800,
		maxModels: 10,
		zipf:      1.1,
		scripts:   800,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrunk is the -short variant: a tenth of the rows (at least enough for a
// 10×10 display with filters) and the smallest loops, same shape.
func (w workload) shrunk() workload {
	w.rows = max(w.rows/10, 400)
	w.threshold /= 10
	w.tables = max(w.tables/4, 1)
	w.maxModels = max(min(w.maxModels, w.tables/2), 1)
	w.scripts = max(w.scripts/50, 2)
	w.perCycle = min(w.perCycle, 1)
	w.reloads = min(w.reloads, 1)
	return w
}
