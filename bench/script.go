package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"
)

// The timed operations of one script, in order.
const (
	opSelect = iota
	opDrill
	opExact
	opResidual
	numOps
)

var opNames = [numOps]string{"select", "drilldown", "filter_exact", "filter_residual"}

// display is the part of a sub-table response the checks read.
type display struct {
	SourceRows []int      `json:"source_rows"`
	Cols       []string   `json:"cols"`
	Cells      [][]string `json:"cells"`
	ScopeRows  int        `json:"scope_rows"`
}

// shown is what must be identical every time a variant runs: fresh
// sessions make each display a pure function of (table, variant).
type shown struct {
	Rows []int
	Cols []string
}

// scriptResult is one script's outcome. Latencies are only meaningful when
// Failed is 0.
type scriptResult struct {
	Attempted, Failed int
	Total             time.Duration
	Op                [numOps]time.Duration
	Bytes             int // response body bytes of the four displays
}

// runner executes scripts against one stack and checks every response.
type runner struct {
	st        *stack
	threshold int
	tr        *tracer

	mu sync.Mutex
	// seen holds the first display of each (table, variant, op); any later
	// response that differs is a failed output check.
	seen map[string]shown
	errs []string // first few failure descriptions, for the report
}

func newRunner(st *stack, threshold int, tr *tracer) *runner {
	return &runner{st: st, threshold: threshold, tr: tr, seen: map[string]shown{}}
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// checkDisplay applies the output checks to one display: shape, predicate
// satisfaction on the generator's retained columns, and run-to-run
// determinism. want is how many rows the display must carry.
func (r *runner) checkDisplay(td *tableData, vi, op int, d *display, where *predicate, want int) bool {
	tag := fmt.Sprintf("%s/v%d/%s", td.Name, vi, opNames[op])
	if len(d.SourceRows) != want || len(d.Cols) != min(viewL, td.Cols) || len(d.Cells) != want {
		r.fail("%s: got %d rows × %d cols (%d cell rows), want %d × %d", tag, len(d.SourceRows), len(d.Cols), len(d.Cells), want, min(viewL, td.Cols))
		return false
	}
	for i, row := range d.SourceRows {
		if row < 0 || row >= td.Rows || len(d.Cells[i]) != len(d.Cols) {
			r.fail("%s: malformed row %d", tag, row)
			return false
		}
		if where != nil && !td.matches(*where, row) {
			r.fail("%s: source row %d does not satisfy %+v", tag, row, *where)
			return false
		}
	}
	now := shown{d.SourceRows, d.Cols}
	r.mu.Lock()
	first, ok := r.seen[tag]
	if !ok {
		r.seen[tag] = now
	}
	r.mu.Unlock()
	if ok && !reflect.DeepEqual(first, now) {
		r.fail("%s: display differs from the variant's first run", tag)
		return false
	}
	return true
}

// forget drops a table's recorded displays; an ingest cycle calls it when
// new data replaces the table.
func (r *runner) forget(table string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for tag := range r.seen {
		if strings.HasPrefix(tag, table+"/") {
			delete(r.seen, tag)
		}
	}
}

// ran reports whether every display of a table's variant is on record.
func (r *runner) ran(table string, vi int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for op := 0; op < numOps; op++ {
		if _, ok := r.seen[fmt.Sprintf("%s/v%d/%s", table, vi, opNames[op])]; !ok {
			return false
		}
	}
	return true
}

// displays returns the recorded displays of one table, in (variant, op)
// order, skipping any that never ran.
func (r *runner) displays(table string) []shown {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []shown
	for vi := 0; vi < numVariants; vi++ {
		for op := 0; op < numOps; op++ {
			if s, ok := r.seen[fmt.Sprintf("%s/v%d/%s", table, vi, opNames[op])]; ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// digest hashes the recorded displays of one table's eight variants, in
// (variant, op) order, so two runs at one seed can be compared byte for
// byte.
func (r *runner) digest(table string) string {
	h := sha256.New()
	r.mu.Lock()
	defer r.mu.Unlock()
	for vi := 0; vi < numVariants; vi++ {
		for op := 0; op < numOps; op++ {
			fmt.Fprintf(h, "%d/%d:%s\n", vi, op, mustJSON(r.seen[fmt.Sprintf("%s/v%d/%s", table, vi, opNames[op])]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// script runs variant vi of td once in a fresh session: open → select →
// drill-down → exact-filtered select → residual-filtered select → close.
// Every request is an attempted op; a transport error, an unexpected
// status or a failed output check is a failed one and ends the script
// (the session is still closed).
func (r *runner) script(td *tableData, vi int) (res scriptResult) {
	v := &td.Variants[vi]
	bodies := v.selectBodies(r.threshold)
	trace := r.tr.newTrace()
	root := r.tr.start("http.script", -1, trace)
	defer r.tr.end(root)
	start := time.Now()

	step := func(name, method, path string, body []byte, wantStatus int) ([]byte, time.Duration, bool) {
		res.Attempted++
		sp := r.tr.start("http."+name, root, trace)
		var status int
		var resp []byte
		var took time.Duration
		var err error
		if method == http.MethodDelete {
			status, resp, took, err = r.st.call(method, path, nil, 0)
		} else {
			status, resp, took, err = r.st.post(path, body)
		}
		r.tr.end(sp)
		if err != nil || status != wantStatus {
			res.Failed++
			r.fail("%s/v%d/%s: status %d err %v body %.200s", td.Name, vi, name, status, err, resp)
			return nil, 0, false
		}
		return resp, took, true
	}

	resp, _, ok := step("open", http.MethodPost, "/v1/sessions", mustJSON(map[string]string{"table": td.Name}), http.StatusCreated)
	if !ok {
		return res
	}
	var sess struct{ Session string }
	if err := json.Unmarshal(resp, &sess); err != nil || sess.Session == "" {
		res.Failed++
		r.fail("%s/v%d/open: no session id in %.200s", td.Name, vi, resp)
		return res
	}
	base := "/v1/sessions/" + sess.Session
	defer func() {
		if _, _, ok := step("close", http.MethodDelete, base, nil, http.StatusOK); ok && res.Failed == 0 {
			res.Total = time.Since(start)
		}
	}()

	show := func(op int, path string, body []byte, where *predicate, wantRows func(*display) int) (*display, bool) {
		resp, took, ok := step(opNames[op], http.MethodPost, base+path, body, http.StatusOK)
		if !ok {
			return nil, false
		}
		var d display
		if err := json.Unmarshal(resp, &d); err != nil {
			res.Failed++
			r.fail("%s/v%d/%s: %v", td.Name, vi, opNames[op], err)
			return nil, false
		}
		if !r.checkDisplay(td, vi, op, &d, where, wantRows(&d)) {
			res.Failed++
			return nil, false
		}
		res.Op[op] = took
		res.Bytes += len(resp)
		return &d, true
	}
	fullRows := func(*display) int { return min(viewK, td.Rows) }

	first, ok := show(opSelect, "/select", bodies[0], nil, fullRows)
	if !ok {
		return res
	}
	drill := mustJSON(drillBody{
		Row:   first.SourceRows[v.AnchorRow%len(first.SourceRows)],
		Col:   v.AnchorCol,
		shape: v.shape(r.threshold),
	})
	// A drill-down is scoped to the anchor's neighbourhood, which always
	// holds the anchor row; a neighbourhood smaller than k is the
	// documented shortfall.
	d, ok := show(opDrill, "/drilldown", drill, nil, func(d *display) int { return min(viewK, d.ScopeRows) })
	if !ok {
		return res
	}
	if d.ScopeRows <= 0 {
		res.Failed++
		r.fail("%s/v%d/drilldown: scope_rows = %d", td.Name, vi, d.ScopeRows)
		return res
	}
	if _, ok := show(opExact, "/select", bodies[1], &v.Exact, func(*display) int { return min(viewK, v.exactRows) }); !ok {
		return res
	}
	if _, ok := show(opResidual, "/select", bodies[2], &v.Residual, func(*display) int { return min(viewK, v.residualRows) }); !ok {
		return res
	}
	return res
}
