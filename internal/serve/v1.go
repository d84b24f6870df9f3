package serve

// The /v1 exploration surface: versioned HTTP handlers for server-side
// exploration sessions. One consolidated select body (where + shape +
// scale + weights) replaces the unversioned select/query split, and every
// error — including the 429 admission path — returns the same structured
// envelope {code, message, retry_after?}.

import (
	"net/http"
	"strings"
	"time"

	"subtab/internal/core"
)

// createSessionRequest is the body of POST /v1/sessions.
type createSessionRequest struct {
	Table string `json:"table"`
}

// v1Shape is the block every /v1 select-shaped body shares: the sub-table
// shape, the per-request scale override, and the session weighting knobs.
// K and L default to 10 when omitted.
type v1Shape struct {
	K       int             `json:"k"`
	L       int             `json:"l"`
	Targets []string        `json:"targets"`
	Scale   *scaleDTO       `json:"scale"`
	Weights *SessionWeights `json:"weights"`
}

// v1SelectRequest is the consolidated body of POST
// /v1/sessions/{id}/select: the predicate conjunction plus the shape block.
type v1SelectRequest struct {
	Where []predicateDTO `json:"where"`
	v1Shape
}

// v1DrillDownRequest is the body of POST /v1/sessions/{id}/drilldown: the
// anchor (a source row of the last view, plus optionally one of its
// column names for a cell anchor) plus the shape block.
type v1DrillDownRequest struct {
	Row int    `json:"row"`
	Col string `json:"col"`
	v1Shape
}

// v1SubTableResponse is subTableResponse plus the session context: the
// session id, how many views the session has recorded, and — for
// drill-downs — the neighborhood size the select was scoped to.
type v1SubTableResponse struct {
	subTableResponse
	Session   string `json:"session"`
	Views     int    `json:"views"`
	ScopeRows int    `json:"scope_rows,omitempty"`
}

func (h *api) createSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	if strings.TrimSpace(req.Table) == "" {
		writeBadRequest(w, "missing required field: table")
		return
	}
	info, err := h.svc.CreateSession(req.Table)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (h *api) sessionStatus(w http.ResponseWriter, r *http.Request) {
	info, err := h.svc.SessionStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *api) deleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := h.svc.DeleteSession(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// checkShape applies the k/l defaults and the response cell budget shared
// by every select-shaped handler; a non-nil return means the error was
// already written.
func checkShape(w http.ResponseWriter, k, l *int) bool {
	if *k == 0 {
		*k = 10
	}
	if *l == 0 {
		*l = 10
	}
	if *k < 0 || *l < 0 {
		writeBadRequest(w, "k and l must be non-negative, got k=%d l=%d", *k, *l)
		return false
	}
	// Bound the response before any work happens: each of the k×l cells is
	// materialized three times on the way out (view table, rendered view,
	// JSON cells), so the budget is what keeps one request from holding
	// the response path's memory hostage.
	if *k > maxSelectCells || *l > maxSelectCells || *k**l > maxSelectCells {
		writeBadRequest(w, "k×l = %d×%d exceeds the response budget of %d cells", *k, *l, maxSelectCells)
		return false
	}
	return true
}

func (h *api) sessionSelect(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req v1SelectRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	if !checkShape(w, &req.K, &req.L) {
		return
	}
	preds, err := toPredicates(req.Where)
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	scale, err := req.Scale.toOptions()
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	start := time.Now()
	st, err := h.svc.SessionSelect(id, preds, req.K, req.L, req.Targets, scale, req.Weights)
	if err != nil {
		writeError(w, err)
		return
	}
	h.writeSessionView(w, id, st, 0, start)
}

func (h *api) sessionDrillDown(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req v1DrillDownRequest
	if err := decodeBody(r, &req); err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	if !checkShape(w, &req.K, &req.L) {
		return
	}
	scale, err := req.Scale.toOptions()
	if err != nil {
		writeBadRequest(w, "%v", err)
		return
	}
	start := time.Now()
	st, scopeRows, err := h.svc.SessionDrillDown(id, req.Row, req.Col, req.K, req.L, req.Targets, scale, req.Weights)
	if err != nil {
		writeError(w, err)
		return
	}
	h.writeSessionView(w, id, st, scopeRows, start)
}

func (h *api) writeSessionView(w http.ResponseWriter, id string, st *core.SubTable, scopeRows int, start time.Time) {
	info, err := h.svc.SessionStatus(id)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := v1SubTableResponse{
		subTableResponse: subTableResponse{
			Name:       info.Table,
			SourceRows: st.SourceRows,
			Cols:       st.Cols,
			Cells:      viewCells(st.View),
			View:       st.View.String(),
		},
		Session:   id,
		Views:     info.Views,
		ScopeRows: scopeRows,
	}
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}
