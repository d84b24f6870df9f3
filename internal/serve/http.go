package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/query"
	"subtab/internal/rules"
	"subtab/internal/shard"
	"subtab/internal/table"
)

// maxCSVBody bounds uploaded CSV bodies (tables beyond this belong in a
// bulk-ingest path, not an HTTP upload). A variable so tests can exercise
// the oversized-body path without allocating a gigabyte.
var maxCSVBody int64 = 1 << 30

// maxSelectCells bounds a select response's k×l cell count. The check runs
// before the selection so a request asking for millions of cells is
// rejected with a 400 instead of materializing an unbounded response — a
// k×l sub-table is a display artifact, and no display shows 64k cells. A
// variable so tests can lower it.
var maxSelectCells = 1 << 16

// NewHandler adapts a Service to an HTTP/JSON API:
//
//	GET    /healthz                 liveness + cache stats
//	GET    /tables                  list served tables
//	POST   /tables?name=N           upload a CSV body and pre-process it
//	GET    /tables/{name}           one table's info
//	DELETE /tables/{name}           drop a table
//	POST   /tables/{name}/append    append CSV rows (incremental ingestion)
//	POST   /tables/{name}/select    k×l sub-table of the whole table (deprecated: /v1 sessions)
//	POST   /tables/{name}/query     k×l sub-table of a query result (deprecated: /v1 sessions)
//	GET    /tables/{name}/rules     mined association rules
//	POST   /shards/{name}/{idx}/sample  shard-exec scan (binary codec)
//	POST   /shards/{name}/{idx}/cells   shard-exec cell gather (binary codec)
//
// plus the versioned exploration surface:
//
//	POST   /v1/sessions                    open an exploration session
//	GET    /v1/sessions/{id}               session state
//	DELETE /v1/sessions/{id}               close a session
//	POST   /v1/sessions/{id}/select        predicate-scoped, coverage-biased select
//	POST   /v1/sessions/{id}/drilldown     expand a row/cell anchor and select inside it
//
// Every response is JSON; errors are one structured envelope
// {"code": "...", "message": "...", "retry_after": n?} with a matching
// status code (retry_after appears only on 429s, mirroring the
// Retry-After header). The unversioned select/query routes answer with a
// Deprecation header pointing at /v1. A nil logger disables request
// logging.
func NewHandler(svc *Service, logger *log.Logger) http.Handler {
	h := &api{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.health)
	mux.HandleFunc("GET /tables", h.listTables)
	mux.HandleFunc("POST /tables", h.createTable)
	mux.HandleFunc("GET /tables/{name}", h.tableInfo)
	mux.HandleFunc("DELETE /tables/{name}", h.deleteTable)
	mux.HandleFunc("POST /tables/{name}/append", h.appendRows)
	mux.HandleFunc("POST /tables/{name}/select", deprecated(h.selectWhole))
	mux.HandleFunc("POST /tables/{name}/query", deprecated(h.selectQuery))
	mux.HandleFunc("GET /tables/{name}/rules", h.rules)
	mux.HandleFunc("POST /shards/{name}/{idx}/sample", h.shardSample)
	mux.HandleFunc("POST /shards/{name}/{idx}/cells", h.shardCells)
	mux.HandleFunc("POST /v1/sessions", h.createSession)
	mux.HandleFunc("GET /v1/sessions/{id}", h.sessionStatus)
	mux.HandleFunc("DELETE /v1/sessions/{id}", h.deleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/select", h.sessionSelect)
	mux.HandleFunc("POST /v1/sessions/{id}/drilldown", h.sessionDrillDown)
	if logger == nil {
		return mux
	}
	return logRequests(logger, mux)
}

// deprecated marks a legacy unversioned route: it still works as a thin
// adapter over the same service, but answers with a Deprecation header
// (RFC 9745) steering clients to the /v1 exploration surface.
func deprecated(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "@1786060800") // 2026-08-07: superseded by /v1/sessions
		w.Header().Set("Link", "</v1/sessions>; rel=\"successor-version\"")
		next(w, r)
	}
}

// logRequests wraps next with per-request logging (method, path, status,
// duration).
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		logger.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

type api struct {
	svc *Service
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorEnvelope is the single error shape every handler returns: a stable
// machine-readable code, the human-readable message, and — on 429s only —
// the Retry-After hint in seconds (mirroring the header, so JSON-only
// clients need not parse headers).
type errorEnvelope struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Code: code, Message: fmt.Sprintf(format, args...)})
}

func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	env := errorEnvelope{Message: err.Error()}
	switch {
	case errors.Is(err, ErrNotFound):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, ErrExists):
		status, code = http.StatusConflict, "conflict"
	case errors.Is(err, ErrBadRequest):
		status, code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrOverloaded):
		// Load shed: tell the client when to come back. The admission error
		// carries a back-off hint; concurrency-limit sheds clear in one
		// request time, so a second is plenty for both.
		status, code = http.StatusTooManyRequests, "overloaded"
		retry := time.Second
		var ob *memgov.ErrOverBudget
		if errors.As(err, &ob) && ob.RetryAfter > 0 {
			retry = ob.RetryAfter
		}
		secs := int((retry + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		env.RetryAfter = secs
	}
	env.Code = code
	writeJSON(w, status, env)
}

func writeBadRequest(w http.ResponseWriter, format string, args ...any) {
	writeErrorCode(w, http.StatusBadRequest, "bad_request", format, args...)
}

func (h *api) health(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status": "ok",
		"tables": len(h.svc.Tables()),
		"cache":  h.svc.Store().Stats(),
	}
	if g := h.svc.Governor(); g != nil {
		resp["memory"] = g.Stats()
		resp["concurrency_shed"] = h.svc.LimiterRejections()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *api) listTables(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": h.svc.Tables()})
}

func (h *api) tableInfo(w http.ResponseWriter, r *http.Request) {
	info, err := h.svc.Info(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *api) deleteTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !h.svc.Store().Contains(name) {
		writeError(w, fmt.Errorf("%w: %q", ErrNotFound, name))
		return
	}
	h.svc.RemoveTable(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// createTable ingests a CSV body: POST /tables?name=flights with optional
// pipeline knobs (bins, dim, window, epochs, seed, strategy, columns,
// workers) and replace=1 to overwrite an existing table.
func (h *api) createTable(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	name := qp.Get("name")
	if strings.TrimSpace(name) == "" {
		writeBadRequest(w, "missing required query parameter: name")
		return
	}
	opt, err := pipelineOptions(h.svc.defaults, qp)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	var toStore bool
	switch v := qp.Get("store"); v {
	case "", "0", "false":
	case "1", "true":
		toStore = true
	default:
		writeBadRequest(w, "parameter store: want 1/true or 0/false, got %q", v)
		return
	}
	var shards int
	if v := qp.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeBadRequest(w, "parameter shards: want a positive integer, got %q", v)
			return
		}
		shards = n
	}
	t, err := table.ReadCSV(name, http.MaxBytesReader(w, r.Body, maxCSVBody))
	if err != nil {
		writeCSVError(w, err)
		return
	}
	start := time.Now()
	replace := qp.Get("replace") == "1" || qp.Get("replace") == "true"
	var m *core.Model
	switch {
	case shards > 0:
		// Sharded upload: bin codes split into N code store files in the
		// disk cache, scaled selections scatter across them.
		m, err = h.svc.AddTableSharded(name, t, opt, shards, replace)
	case toStore:
		// Out-of-core upload: bin codes live in a code store file in the
		// disk cache; the served model keeps only the table, the binnings
		// and the embedding resident.
		m, err = h.svc.AddTableOutOfCore(name, t, opt, replace)
	default:
		m, err = h.svc.AddTable(name, t, opt, replace)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":          name,
		"rows":          m.T.NumRows(),
		"cols":          m.T.NumCols(),
		"columns":       m.T.ColumnNames(),
		"out_of_core":   m.OutOfCore(),
		"preprocess_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

// appendRows ingests a CSV body of additional rows: POST
// /tables/{name}/append with optional knobs drift (total-variation re-bin
// threshold), epochs (fine-tune passes for new embedding tokens) and
// rebin=1 (force a full re-preprocess). The body's header must carry the
// served table's columns. In-flight selects keep the pre-append model; the
// response reports what the append did (see core.AppendStats).
func (h *api) appendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	qp := r.URL.Query()
	var opt core.AppendOptions
	if v := qp.Get("drift"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			writeBadRequest(w, "parameter drift: want a positive number, got %q", v)
			return
		}
		opt.DriftThreshold = f
	}
	if v := qp.Get("epochs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeBadRequest(w, "parameter epochs: want a positive integer, got %q", v)
			return
		}
		opt.FineTuneEpochs = n
	}
	switch v := qp.Get("rebin"); v {
	case "", "0", "false":
	case "1", "true":
		opt.ForceRebin = true
	default:
		// Reject rather than silently run the incremental path the caller
		// explicitly tried to bypass.
		writeBadRequest(w, "parameter rebin: want 1/true or 0/false, got %q", v)
		return
	}
	// Parse the chunk against the served table's column kinds: a chunk is
	// too small a sample to re-infer types from (a categorical column whose
	// few chunk values all look numeric would misparse), and the error for
	// a genuinely non-numeric cell should name the column, not the schema.
	cur, err := h.svc.Model(name)
	if err != nil {
		writeError(w, err)
		return
	}
	rows, err := table.ReadCSVLike(name, http.MaxBytesReader(w, r.Body, maxCSVBody), cur.T)
	if err != nil {
		writeCSVError(w, err)
		return
	}
	start := time.Now()
	m, stats, err := h.svc.AppendRows(name, rows, opt)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    name,
		"rows":    m.T.NumRows(),
		"cols":    m.T.NumCols(),
		"append":  stats,
		"took_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

// shardSample serves the worker half of scatter/gather selection: the
// binary shard-exec codec over POST, not JSON — both sides of the wire
// are subtab-server instances, and the checksummed frame catches
// truncation that a JSON decode would half-accept.
func (h *api) shardSample(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil || idx < 0 {
		writeBadRequest(w, "shard index: want a non-negative integer, got %q", r.PathValue("idx"))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorCode(w, http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeBadRequest(w, "reading request body: %v", err)
		return
	}
	req, err := shard.UnmarshalSampleRequest(raw)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	resp, err := h.svc.SampleShard(name, idx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(resp.Marshal())
}

// shardCells serves the worker half of a remote view gather: a coordinator
// rendering a selection over a sharded column store fetches the chosen
// rows' cells from the shard owners. Binary codec like shardSample.
func (h *api) shardCells(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil || idx < 0 {
		writeBadRequest(w, "shard index: want a non-negative integer, got %q", r.PathValue("idx"))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorCode(w, http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeBadRequest(w, "reading request body: %v", err)
		return
	}
	req, err := shard.UnmarshalCellsRequest(raw)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	resp, err := h.svc.ShardCells(name, idx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(resp.Marshal())
}

// writeCSVError maps a CSV ingestion failure to a status: an oversized body
// is 413, anything else the client's malformed CSV (400).
func writeCSVError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErrorCode(w, http.StatusRequestEntityTooLarge, "too_large",
			"request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeBadRequest(w, "parsing CSV: %v", err)
}

// pipelineOptions overlays query-parameter knobs on the service defaults.
func pipelineOptions(base core.Options, qp map[string][]string) (*core.Options, error) {
	opt := base
	get := func(key string) (string, bool) {
		vs := qp[key]
		if len(vs) == 0 || vs[0] == "" {
			return "", false
		}
		return vs[0], true
	}
	intKnobs := map[string]*int{
		"bins":    &opt.Bins.MaxBins,
		"dim":     &opt.Embedding.Dim,
		"window":  &opt.Embedding.Window,
		"epochs":  &opt.Embedding.Epochs,
		"workers": &opt.Embedding.Workers,
		// Large-table mode defaults for every select against this table
		// (overridable per request via the select body's scale block).
		"scale_threshold": &opt.Scale.Threshold,
		"scale_budget":    &opt.Scale.SampleBudget,
	}
	for key, dst := range intKnobs {
		if v, ok := get(key); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("parameter %s: want a non-negative integer, got %q", key, v)
			}
			*dst = n
		}
	}
	if v, ok := get("scale_slab_budget"); ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("parameter scale_slab_budget: want a non-negative byte count, got %q", v)
		}
		opt.Scale.SlabBudgetBytes = n
	}
	if v, ok := get("seed"); ok {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter seed: want an integer, got %q", v)
		}
		opt.Bins.Seed, opt.Corpus.Seed, opt.Embedding.Seed, opt.ClusterSeed = seed, seed, seed, seed
	}
	if v, ok := get("strategy"); ok {
		switch v {
		case "kde":
			opt.Bins.Strategy = binning.KDEValleys
		case "quantile":
			opt.Bins.Strategy = binning.Quantile
		case "equal-width":
			opt.Bins.Strategy = binning.EqualWidth
		default:
			return nil, fmt.Errorf("parameter strategy: want kde, quantile or equal-width, got %q", v)
		}
	}
	if v, ok := get("columns"); ok {
		switch v {
		case "pattern-groups":
			opt.Columns = core.PatternGroups
		case "centroids":
			opt.Columns = core.Centroids
		default:
			return nil, fmt.Errorf("parameter columns: want pattern-groups or centroids, got %q", v)
		}
	}
	return &opt, nil
}

// selectRequest is the body of /select and /query. K and L default to 10
// when omitted; Query is required for /query and ignored for /select.
// Scale, when present, overrides the served model's large-table selection
// mode for this request only (see core.ScaleOptions).
type selectRequest struct {
	K         int       `json:"k"`
	L         int       `json:"l"`
	Targets   []string  `json:"targets"`
	Highlight bool      `json:"highlight"`
	Query     *queryDTO `json:"query"`
	Scale     *scaleDTO `json:"scale"`
}

// scaleDTO is the JSON shape of core.ScaleOptions. threshold 0 disables the
// scaled path for the request (the explicit way to force exact selection on
// a model configured with a threshold); threshold 1 forces it. slab_budget
// caps the in-memory sampled-vector slab in bytes (0 = never spill).
type scaleDTO struct {
	Threshold    int   `json:"threshold"`
	SampleBudget int   `json:"sample_budget"`
	BatchSize    int   `json:"batch_size"`
	MaxIter      int   `json:"max_iter"`
	SlabBudget   int64 `json:"slab_budget"`
}

func (d *scaleDTO) toOptions() (*core.ScaleOptions, error) {
	if d == nil {
		return nil, nil // no override: the model's configured mode
	}
	if d.Threshold < 0 || d.SampleBudget < 0 || d.BatchSize < 0 || d.MaxIter < 0 || d.SlabBudget < 0 {
		return nil, fmt.Errorf("scale: all knobs must be non-negative")
	}
	return &core.ScaleOptions{
		Threshold:       d.Threshold,
		SampleBudget:    d.SampleBudget,
		BatchSize:       d.BatchSize,
		MaxIter:         d.MaxIter,
		SlabBudgetBytes: d.SlabBudget,
	}, nil
}

type subTableResponse struct {
	Name       string     `json:"name"`
	SourceRows []int      `json:"source_rows"`
	Cols       []string   `json:"cols"`
	Cells      [][]string `json:"cells"`
	View       string     `json:"view"`
	RuleLabels []string   `json:"rule_labels,omitempty"`
	TookMS     float64    `json:"took_ms"`
}

func (h *api) selectWhole(w http.ResponseWriter, r *http.Request) {
	h.doSelect(w, r, false)
}

func (h *api) selectQuery(w http.ResponseWriter, r *http.Request) {
	h.doSelect(w, r, true)
}

func (h *api) doSelect(w http.ResponseWriter, r *http.Request, withQuery bool) {
	name := r.PathValue("name")
	var req selectRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	if !checkShape(w, &req.K, &req.L) {
		return
	}
	var q *query.Query
	if withQuery {
		if req.Query == nil {
			writeBadRequest(w, "missing required field: query")
			return
		}
		var err error
		if q, err = req.Query.toQuery(); err != nil {
			writeBadRequest(w, "%v", err)
			return
		}
	}
	scale, err := req.Scale.toOptions()
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	start := time.Now()
	st, err := h.svc.Select(name, core.ExploreSpec{Query: q, K: req.K, L: req.L, Targets: req.Targets, Scale: scale})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := subTableResponse{
		Name:       name,
		SourceRows: st.SourceRows,
		Cols:       st.Cols,
		Cells:      viewCells(st.View),
		View:       st.View.String(),
	}
	if req.Highlight {
		view, labels, err := h.svc.Highlight(name, rules.Options{TargetCols: req.Targets}, st)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.View, resp.RuleLabels = view, labels
	}
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

func viewCells(v *table.Table) [][]string {
	cells := make([][]string, v.NumRows())
	for r := range cells {
		row := make([]string, v.NumCols())
		for c := range row {
			row[c] = v.ColumnAt(c).CellString(r)
		}
		cells[r] = row
	}
	return cells
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body: all fields take their defaults
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// queryDTO is the JSON shape of a query.Query.
type queryDTO struct {
	Where   []predicateDTO `json:"where"`
	Select  []string       `json:"select"`
	GroupBy []string       `json:"group_by"`
	Aggs    []aggregateDTO `json:"aggs"`
	OrderBy string         `json:"order_by"`
	Asc     bool           `json:"asc"`
	Limit   int            `json:"limit"`
}

type predicateDTO struct {
	Col string  `json:"col"`
	Op  string  `json:"op"`
	Num float64 `json:"num"`
	Str string  `json:"str"`
}

type aggregateDTO struct {
	Func string `json:"func"`
	Col  string `json:"col"`
}

func (d *queryDTO) toQuery() (*query.Query, error) {
	q := &query.Query{
		Select:  d.Select,
		GroupBy: d.GroupBy,
		OrderBy: d.OrderBy,
		Asc:     d.Asc,
		Limit:   d.Limit,
	}
	var err error
	if q.Where, err = toPredicates(d.Where); err != nil {
		return nil, err
	}
	for _, a := range d.Aggs {
		fn, err := parseAggFunc(a.Func)
		if err != nil {
			return nil, err
		}
		q.Aggs = append(q.Aggs, query.Aggregate{Func: fn, Col: a.Col})
	}
	return q, nil
}

func toPredicates(where []predicateDTO) ([]query.Predicate, error) {
	preds := make([]query.Predicate, 0, len(where))
	for _, p := range where {
		op, err := parseOp(p.Op)
		if err != nil {
			return nil, err
		}
		preds = append(preds, query.Predicate{Col: p.Col, Op: op, Num: p.Num, Str: p.Str})
	}
	return preds, nil
}

func parseOp(s string) (query.Op, error) {
	switch s {
	case "=", "eq":
		return query.Eq, nil
	case "!=", "neq":
		return query.Neq, nil
	case "<", "lt":
		return query.Lt, nil
	case "<=", "leq":
		return query.Leq, nil
	case ">", "gt":
		return query.Gt, nil
	case ">=", "geq":
		return query.Geq, nil
	case "missing", "is_missing":
		return query.IsMissing, nil
	case "not_missing":
		return query.NotMissing, nil
	default:
		return 0, fmt.Errorf("unknown predicate op %q", s)
	}
}

func parseAggFunc(s string) (query.AggFunc, error) {
	switch s {
	case "count":
		return query.Count, nil
	case "sum":
		return query.Sum, nil
	case "mean", "avg":
		return query.Mean, nil
	case "min":
		return query.Min, nil
	case "max":
		return query.Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", s)
	}
}

// ruleResponse is the JSON shape of one mined rule.
type ruleResponse struct {
	LHS        []string `json:"lhs"`
	RHS        []string `json:"rhs"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
	Label      string   `json:"label"`
}

// rules serves GET /tables/{name}/rules with mining knobs as query
// parameters: min_support, min_confidence, min_rule_size, max_itemset_size,
// max_rules, targets (comma-separated), all_splits, include_missing.
func (h *api) rules(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	qp := r.URL.Query()
	var opt rules.Options
	for key, dst := range map[string]*float64{
		"min_support":    &opt.MinSupport,
		"min_confidence": &opt.MinConfidence,
	} {
		if v := qp.Get(key); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				writeBadRequest(w, "parameter %s: want a fraction in [0,1], got %q", key, v)
				return
			}
			*dst = f
		}
	}
	for key, dst := range map[string]*int{
		"min_rule_size":    &opt.MinRuleSize,
		"max_itemset_size": &opt.MaxItemsetSize,
		"max_rules":        &opt.MaxRules,
	} {
		if v := qp.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeBadRequest(w, "parameter %s: want a non-negative integer, got %q", key, v)
				return
			}
			*dst = n
		}
	}
	if v := qp.Get("targets"); v != "" {
		opt.TargetCols = strings.Split(v, ",")
	}
	opt.AllSplits = qp.Get("all_splits") == "1" || qp.Get("all_splits") == "true"
	opt.IncludeMissing = qp.Get("include_missing") == "1" || qp.Get("include_missing") == "true"

	start := time.Now()
	rs, m, err := h.svc.Rules(name, opt)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]ruleResponse, len(rs))
	for i := range rs {
		rr := &rs[i]
		out[i] = ruleResponse{
			Support:    rr.Support,
			Confidence: rr.Confidence,
			Label:      rr.Label(m.B),
		}
		for _, it := range rr.LHS {
			out[i].LHS = append(out[i].LHS, m.B.ItemLabel(it))
		}
		for _, it := range rr.RHS {
			out[i].RHS = append(out[i].RHS, m.B.ItemLabel(it))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    name,
		"count":   len(out),
		"rules":   out,
		"took_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}
