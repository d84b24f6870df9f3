// Command subtab-loadgen is the multi-tenant load harness: it boots a
// fully-wired serving stack in-process (store + service + HTTP handler,
// governed by the same -memory-budget machinery subtab-server wires), then
// drives mixed upload / append / select / query traffic over hundreds of
// tables with zipfian popularity — the workload shape the memory governor
// exists for: far more tenants than fit resident, a hot head that should
// stay cached, and a cold tail that must page through the disk cache
// without ever growing the process past its budget.
//
// Everything is deterministic under -seed: table sizes, datasets, the
// per-worker operation streams and the zipf popularity draws all derive
// from it, so two runs at the same flags replay the same workload (only
// goroutine interleaving varies).
//
// The harness logs per-operation p50/p99 latency, shed counts (429s are
// load shedding working as designed, not failures), peak RSS (VmHWM) and
// the governor's ledger. CI gates on its memory behaviour:
//
//	GOMEMLIMIT=512MiB subtab-loadgen -tables 200 -memory-budget 16MiB \
//	    -filtered -assert-rss 512MiB -assert-governor
//
// -filtered mixes /v1 exploration-session traffic into the select share:
// workers open sessions, run predicate-scoped streaming selects through
// POST /v1/sessions/{id}/select and drill into the returned views. Sessions
// stranded by replace traffic (409/404) are reopened, exercising the
// staleness path under real contention.
//
// -assert-rss bounds VmHWM, -assert-governor requires the governed peak to
// stay within -memory-budget; any 5xx response or transport error is a
// hard failure. Latency is the benchmark's to judge (bench/), not this
// harness's.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"subtab"
	"subtab/internal/datagen"
	"subtab/internal/memgov"
	"subtab/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("subtab-loadgen: ")
	var (
		tables     = flag.Int("tables", 200, "number of tenant tables to upload")
		rowsMin    = flag.Int("rows-min", 60, "minimum rows per table")
		rowsMax    = flag.Int("rows-max", 140, "maximum rows per table")
		ops        = flag.Int("ops", 400, "mixed-traffic operations after the upload phase")
		workers    = flag.Int("concurrency", 8, "concurrent load-generating workers")
		seed       = flag.Int64("seed", 1, "workload seed (sizes, datasets, op streams, popularity)")
		memBudget  = flag.String("memory-budget", "64MiB", "server's process-wide governed budget (empty = ungoverned)")
		tableConc  = flag.Int("table-concurrency", 4, "server's per-table concurrent select limit (0 = unlimited)")
		maxModels  = flag.Int("max-models", 256, "server's in-memory model count backstop")
		filtered   = flag.Bool("filtered", false, "mix /v1 session predicate-scoped selects and drill-downs into the select share")
		assertRSS  = flag.String("assert-rss", "", "fail unless peak RSS (VmHWM) is at or under this byte size (empty = no assertion)")
		assertGov  = flag.Bool("assert-governor", false, "fail if the governor's peak tracked bytes exceeded -memory-budget")
		appendRows = flag.Int("append-rows", 10, "rows per append chunk")
		selectPct  = flag.Int("select-pct", 70, "percent of mixed ops that are selects")
		queryPct   = flag.Int("query-pct", 15, "percent of mixed ops that are query-selects")
		appendPct  = flag.Int("append-pct", 10, "percent of mixed ops that are appends (the rest are replace re-uploads)")
	)
	flag.Parse()
	if *tables <= 0 || *ops < 0 || *workers <= 0 || *rowsMin <= 0 || *rowsMax < *rowsMin {
		log.Fatal("want -tables > 0, -ops >= 0, -concurrency > 0 and 0 < -rows-min <= -rows-max")
	}
	if *selectPct+*queryPct+*appendPct > 100 {
		log.Fatal("-select-pct + -query-pct + -append-pct must not exceed 100")
	}
	budget, err := parseByteSize(*memBudget)
	if err != nil {
		log.Fatalf("-memory-budget: %v", err)
	}
	rssLimit, err := parseByteSize(*assertRSS)
	if err != nil {
		log.Fatalf("-assert-rss: %v", err)
	}

	// The server lives in this process, so the harness's RSS *is* the
	// server's RSS and GOMEMLIMIT covers the whole experiment.
	var gov *memgov.Governor
	if budget > 0 {
		gov = memgov.New(budget)
	}
	cacheDir, err := os.MkdirTemp("", "subtab-loadgen")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	opt := subtab.DefaultOptions()
	store := serve.NewStore(serve.StoreOptions{MaxModels: *maxModels, Dir: cacheDir, Governor: gov})
	svc := serve.NewService(store, opt)
	svc.SetAdmission(gov, *tableConc)
	srv := httptest.NewServer(serve.NewHandler(svc, nil))
	defer srv.Close()
	client := srv.Client()

	h := newHarness(client, srv.URL, *seed, *tables, *rowsMin, *rowsMax, *appendRows)

	log.Printf("uploading %d tables (%d-%d rows, %d workers, seed %d)", *tables, *rowsMin, *rowsMax, *workers, *seed)
	start := time.Now()
	h.runPhase(*workers, *tables, func(w *workerState, i int) {
		h.upload(w, i, false)
	})
	log.Printf("upload phase: %d ok, %d shed in %s", h.counts["upload"], h.shed.count("upload"), time.Since(start).Round(time.Millisecond))

	log.Printf("mixed phase: %d ops (select %d%%, query %d%%, append %d%%, replace %d%%, zipf s=%.2f)",
		*ops, *selectPct, *queryPct, *appendPct, 100-*selectPct-*queryPct-*appendPct, zipfS)
	start = time.Now()
	h.runPhase(*workers, *ops, func(w *workerState, i int) {
		table := int(w.zipf.Uint64())
		switch p := w.rng.Intn(100); {
		case p < *selectPct:
			// With -filtered, half the select share goes through the /v1
			// session surface (p's parity keeps the split deterministic).
			if *filtered && p%2 == 1 {
				h.filteredSel(w, table)
			} else {
				h.sel(w, table)
			}
		case p < *selectPct+*queryPct:
			h.query(w, table)
		case p < *selectPct+*queryPct+*appendPct:
			h.append(w, table)
		default:
			h.upload(w, table, true)
		}
	})
	log.Printf("mixed phase done in %s", time.Since(start).Round(time.Millisecond))

	if h.errs.Load() != "" {
		log.Fatalf("hard failure during the run: %s", h.errs.Load())
	}

	// One pass through /healthz so the governed stats endpoint is exercised
	// end to end (and visible in the log for CI triage).
	if body, err := h.get("/healthz"); err != nil {
		log.Fatalf("healthz: %v", err)
	} else {
		log.Printf("healthz: %s", strings.TrimSpace(string(body)))
	}

	for _, op := range []string{"upload", "select", "query", "append", "session", "filtered", "drilldown"} {
		lat := h.latencies(op)
		if len(lat) == 0 {
			continue
		}
		log.Printf("%-8s n=%-5d shed=%-4d p50=%-12s p99=%s", op, len(lat), h.shed.count(op),
			percentile(lat, 50).Round(time.Microsecond), percentile(lat, 99).Round(time.Microsecond))
	}
	rss, rssOK := procStatusBytes("VmHWM")
	if rssOK {
		log.Printf("peak RSS (VmHWM): %d MiB", rss>>20)
	}
	if gov != nil {
		st := gov.Stats()
		log.Printf("governor: budget=%d peak=%d used=%d admitted=%d rejected=%d reclaims=%d reclaimed=%d",
			st.BudgetBytes, st.PeakBytes, st.UsedBytes, st.Admitted, st.Rejected, st.Reclaims, st.Reclaimed)
		log.Printf("store: %+v, limiter sheds: %d", store.Stats(), svc.LimiterRejections())
	}

	failed := false
	if rssLimit > 0 {
		if !rssOK {
			log.Printf("ASSERT SKIPPED: -assert-rss needs /proc/self/status (linux)")
		} else if rss > rssLimit {
			log.Printf("ASSERT FAILED: peak RSS %d > %d", rss, rssLimit)
			failed = true
		}
	}
	if *assertGov {
		switch {
		case gov == nil:
			log.Print("ASSERT FAILED: -assert-governor needs -memory-budget")
			failed = true
		case gov.Peak() > budget:
			log.Printf("ASSERT FAILED: governor peak %d exceeded budget %d", gov.Peak(), budget)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	log.Print("all assertions passed")
}

// harness drives the HTTP API and aggregates per-operation outcomes.
type harness struct {
	client  *http.Client
	baseURL string
	seed    int64
	tables  int
	rowsMin int
	rowsMax int
	chunk   int

	mu     sync.Mutex
	lats   map[string][]time.Duration
	counts map[string]int
	shed   shedCounter
	errs   firstError
}

// workerState is one worker's deterministic stream: its own rng and zipf
// draw, so the workload content does not depend on scheduling.
type workerState struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	ops  int64 // per-worker op counter, salts append/replace seeds

	// sessions caches this worker's open /v1 session per table, with
	// sessOrder tracking insertion order so eviction under the cap is
	// deterministic (map iteration is not).
	sessions  map[int]string
	sessOrder []int
}

// zipfS is the zipf exponent of table popularity (>1; larger = hotter
// head).
const zipfS = 1.2

// maxWorkerSessions caps each worker's cached sessions so the fleet stays
// under the server's session limit (workers × cap < 1024); the oldest is
// closed server-side and reopened on next use.
const maxWorkerSessions = 96

func newHarness(client *http.Client, baseURL string, seed int64, tables, rowsMin, rowsMax, chunk int) *harness {
	return &harness{
		client:  client,
		baseURL: baseURL,
		seed:    seed,
		tables:  tables,
		rowsMin: rowsMin,
		rowsMax: rowsMax,
		chunk:   chunk,
		lats:    make(map[string][]time.Duration),
		counts:  make(map[string]int),
	}
}

// runPhase fans n work items over the worker pool. Each worker's state is
// seeded from (harness seed, worker id) only.
func (h *harness) runPhase(workers, n int, fn func(w *workerState, i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for wid := 0; wid < workers; wid++ {
		rng := rand.New(rand.NewSource(h.seed + int64(wid)*7919))
		w := &workerState{id: wid, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(h.tables-1))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// tableName, tableDataset and tableRows are pure functions of the table
// index (and the harness seed), so every worker derives the same tenant
// layout without coordination.
func (h *harness) tableName(i int) string { return fmt.Sprintf("t%03d", i) }

func (h *harness) tableDataset(i int) string {
	names := datagen.Names()
	return names[i%len(names)]
}

func (h *harness) tableRows(i int) int {
	r := rand.New(rand.NewSource(h.seed ^ int64(i)*0x9e3779b9))
	return h.rowsMin + r.Intn(h.rowsMax-h.rowsMin+1)
}

// upload POSTs table i's CSV. replace re-uploads over the live table (a
// tenant re-publishing its data), exercising the store's replacement path
// and generation bumps under load.
func (h *harness) upload(w *workerState, i int, replace bool) {
	dataSeed := h.seed + int64(i)
	if replace {
		// A re-upload ships different rows (same schema), so the replacement
		// is a real model swap, not a no-op.
		dataSeed += 1_000_000 + w.ops
	}
	w.ops++
	ds, err := datagen.ByName(h.tableDataset(i), h.tableRows(i), dataSeed)
	if err != nil {
		h.errs.set(fmt.Sprintf("datagen %s: %v", h.tableDataset(i), err))
		return
	}
	var body bytes.Buffer
	if err := ds.T.WriteCSV(&body); err != nil {
		h.errs.set(fmt.Sprintf("csv %s: %v", h.tableName(i), err))
		return
	}
	// Tiny embedding knobs: the harness measures serving behavior under
	// memory pressure, not embedding quality, and 200 preprocesses must fit
	// a CI smoke.
	url := fmt.Sprintf("%s/tables?name=%s&dim=8&epochs=1&seed=%d&replace=%s",
		h.baseURL, h.tableName(i), h.seed, boolParam(replace))
	h.do("upload", http.MethodPost, url, body.Bytes())
}

// sel POSTs a select; every other request forces the scaled path so the
// sample caches and slab admission see traffic too.
func (h *harness) sel(w *workerState, i int) {
	w.ops++
	req := `{"k":6,"l":4}`
	if w.rng.Intn(2) == 0 {
		req = `{"k":6,"l":4,"scale":{"threshold":1,"sample_budget":64}}`
	}
	h.do("select", http.MethodPost, h.baseURL+"/v1/tables/"+h.tableName(i)+"/select", []byte(req))
}

// query POSTs a query-select with a predicate every dataset satisfies
// partially (first column non-missing), keeping the query path exercised
// without dataset-specific knowledge.
func (h *harness) query(w *workerState, i int) {
	w.ops++
	ds, err := datagen.ByName(h.tableDataset(i), 1, h.seed+int64(i))
	if err != nil {
		h.errs.set(fmt.Sprintf("datagen %s: %v", h.tableDataset(i), err))
		return
	}
	col := ds.T.ColumnNames()[0]
	req := fmt.Sprintf(`{"k":5,"l":4,"query":{"where":[{"col":%q,"op":"not_missing"}]}}`, col)
	h.do("query", http.MethodPost, h.baseURL+"/v1/tables/"+h.tableName(i)+"/select", []byte(req))
}

// append POSTs a small same-schema chunk to table i.
func (h *harness) append(w *workerState, i int) {
	w.ops++
	ds, err := datagen.ByName(h.tableDataset(i), h.chunk, h.seed+int64(i)*31+w.ops*7)
	if err != nil {
		h.errs.set(fmt.Sprintf("datagen %s: %v", h.tableDataset(i), err))
		return
	}
	var body bytes.Buffer
	if err := ds.T.WriteCSV(&body); err != nil {
		h.errs.set(fmt.Sprintf("csv chunk %s: %v", h.tableName(i), err))
		return
	}
	h.do("append", http.MethodPost, h.baseURL+"/tables/"+h.tableName(i)+"/append", body.Bytes())
}

// sessionFor returns the worker's live /v1 session on table i, opening one
// on first use (evicting its oldest cached session past the cap). Empty
// string means the open was shed or failed — the op is skipped.
func (h *harness) sessionFor(w *workerState, i int) string {
	if id, ok := w.sessions[i]; ok {
		return id
	}
	if w.sessions == nil {
		w.sessions = make(map[int]string)
	}
	for len(w.sessOrder) >= maxWorkerSessions {
		old := w.sessOrder[0]
		w.sessOrder = w.sessOrder[1:]
		if id, ok := w.sessions[old]; ok {
			delete(w.sessions, old)
			h.doStatus("session", http.MethodDelete, h.baseURL+"/v1/sessions/"+id, nil)
		}
	}
	body := fmt.Sprintf(`{"table":%q}`, h.tableName(i))
	status, resp := h.doStatus("session", http.MethodPost, h.baseURL+"/v1/sessions", []byte(body))
	if status != http.StatusCreated {
		return ""
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || out.Session == "" {
		h.errs.set(fmt.Sprintf("session create: bad body %q", resp))
		return ""
	}
	w.sessions[i] = out.Session
	w.sessOrder = append(w.sessOrder, i)
	return out.Session
}

// filteredSel runs one predicate-scoped select through the worker's session
// on table i, reopening the session once if replace traffic stranded it
// (409/404 — the staleness contract, not a failure), and drills into a
// third of the returned views.
func (h *harness) filteredSel(w *workerState, i int) {
	w.ops++
	ds, err := datagen.ByName(h.tableDataset(i), 1, h.seed+int64(i))
	if err != nil {
		h.errs.set(fmt.Sprintf("datagen %s: %v", h.tableDataset(i), err))
		return
	}
	col := ds.T.ColumnNames()[0]
	drill := w.rng.Intn(3) == 0
	for attempt := 0; attempt < 2; attempt++ {
		id := h.sessionFor(w, i)
		if id == "" {
			return
		}
		req := fmt.Sprintf(`{"k":5,"l":4,"where":[{"col":%q,"op":"not_missing"}],"weights":{"view_count":0.5}}`, col)
		status, resp := h.doStatus("filtered", http.MethodPost, h.baseURL+"/v1/sessions/"+id+"/select", []byte(req))
		if status == http.StatusNotFound || status == http.StatusConflict {
			delete(w.sessions, i)
			continue
		}
		if status != http.StatusOK || !drill {
			return
		}
		var view struct {
			SourceRows []int    `json:"source_rows"`
			Cols       []string `json:"cols"`
		}
		if json.Unmarshal(resp, &view) != nil || len(view.SourceRows) == 0 || len(view.Cols) == 0 {
			return
		}
		dd := fmt.Sprintf(`{"row":%d,"col":%q,"k":4,"l":3}`, view.SourceRows[0], view.Cols[0])
		h.doStatus("drilldown", http.MethodPost, h.baseURL+"/v1/sessions/"+id+"/drilldown", []byte(dd))
		return
	}
}

// doStatus is do for the session surface: it returns the status and body,
// tolerates 404/409 (sessions stranded by replace traffic — the caller
// reopens) and counts 429s as shed; 5xx stays a hard failure.
func (h *harness) doStatus(op, method, url string, body []byte) (int, []byte) {
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		h.errs.set(fmt.Sprintf("%s: %v", op, err))
		return 0, nil
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.errs.set(fmt.Sprintf("%s %s: %v", op, url, err))
		return 0, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	took := time.Since(start)
	switch {
	case resp.StatusCode < 300:
		h.mu.Lock()
		h.lats[op] = append(h.lats[op], took)
		h.counts[op]++
		h.mu.Unlock()
	case resp.StatusCode == http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			h.errs.set(fmt.Sprintf("%s: 429 without Retry-After", op))
			return resp.StatusCode, msg
		}
		h.shed.add(op)
	case resp.StatusCode == http.StatusNotFound, resp.StatusCode == http.StatusConflict:
		h.shed.add(op + "-stale")
	default:
		h.errs.set(fmt.Sprintf("%s %s: status %d: %s", op, url, resp.StatusCode, strings.TrimSpace(string(msg))))
	}
	return resp.StatusCode, msg
}

// do executes one request and buckets the outcome: 2xx latencies feed the
// percentiles, 429 counts as shed (the governor refusing work is the
// feature under test), anything else is a hard failure that fails the run.
func (h *harness) do(op, method, url string, body []byte) {
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		h.errs.set(fmt.Sprintf("%s: %v", op, err))
		return
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.errs.set(fmt.Sprintf("%s %s: %v", op, url, err))
		return
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	took := time.Since(start)
	switch {
	case resp.StatusCode < 300:
		h.mu.Lock()
		h.lats[op] = append(h.lats[op], took)
		h.counts[op]++
		h.mu.Unlock()
	case resp.StatusCode == http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			h.errs.set(fmt.Sprintf("%s: 429 without Retry-After", op))
			return
		}
		h.shed.add(op)
	default:
		h.errs.set(fmt.Sprintf("%s %s: status %d: %s", op, url, resp.StatusCode, strings.TrimSpace(string(msg))))
	}
}

func (h *harness) get(path string) ([]byte, error) {
	resp, err := h.client.Get(h.baseURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

func (h *harness) latencies(op string) []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]time.Duration(nil), h.lats[op]...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// shedCounter counts 429 responses per operation.
type shedCounter struct {
	mu sync.Mutex
	m  map[string]int
}

func (c *shedCounter) add(op string) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int)
	}
	c.m[op]++
	c.mu.Unlock()
}

func (c *shedCounter) count(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[op]
}

// firstError keeps the first hard failure; the run continues (draining the
// worker pool) but exits non-zero.
type firstError struct {
	mu  sync.Mutex
	msg string
}

func (e *firstError) set(msg string) {
	e.mu.Lock()
	if e.msg == "" {
		e.msg = msg
	}
	e.mu.Unlock()
}

func (e *firstError) Load() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.msg
}

// percentile returns the p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

func boolParam(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// procStatusBytes reads one RSS figure (VmRSS: current, VmHWM: high-water)
// from /proc/self/status; non-Linux platforms report ok=false.
func procStatusBytes(key string) (int64, bool) {
	if runtime.GOOS != "linux" {
		return 0, false
	}
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != key+":" {
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

// parseByteSize parses a byte count with an optional KiB/MiB/GiB suffix
// (same grammar as subtab-server's flags).
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			mult, s = u.mult, strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("want a non-negative byte count with optional KiB/MiB/GiB suffix, got %q", s)
	}
	return n * mult, nil
}
