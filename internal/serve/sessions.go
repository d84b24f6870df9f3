package serve

// Exploration sessions: the service half of the /v1 session API. A session
// is server-side state (package session) over one served table — the
// (column, bin) strata its views have covered, per-column display counts,
// and the last view's rows and columns as drill-down anchors. Session
// selects run the streaming predicate path (core.SelectExplore) with the
// session's coverage bitset deprioritizing already-shown strata and an
// optional DataPilot-style column bias, then fold the returned view back
// into the session.

import (
	"fmt"

	"subtab/internal/core"
	"subtab/internal/query"
	"subtab/internal/session"
)

// SessionWeights are the optional DataPilot-style column-bias knobs of a
// session select: each source column's score is multiplied by
// 1 / (1 + NullRate·nullRate(c) + ViewCount·views(c)), so columns full of
// missing values and columns the session has already shown repeatedly give
// way to informative unseen ones. Both zero (or a nil weights block) leaves
// the column step unbiased.
type SessionWeights struct {
	NullRate  float64 `json:"null_rate"`
	ViewCount float64 `json:"view_count"`
}

// SessionInfo describes one exploration session.
type SessionInfo struct {
	Session string `json:"session"`
	Table   string `json:"table"`
	Views   int    `json:"views"`
	Covered int    `json:"covered_strata"`
}

// CreateSession opens an exploration session over the named table. Tables
// with remote shards are refused: session selects bias the stratified
// reservoir and drill-downs stream every code block, both of which need
// the shards local (the coordinator's pushdown path serves plain filtered
// selects, not sessions).
func (s *Service) CreateSession(name string) (SessionInfo, error) {
	gen := s.store.Generation(name)
	m, err := s.store.Get(name)
	if err != nil {
		return SessionInfo{}, err
	}
	if err := m.RequireLocal(core.ReasonRemoteSession); err != nil {
		return SessionInfo{}, fmt.Errorf("%w: table %q: %w", ErrBadRequest, name, err)
	}
	sess, err := s.sessions.Create(name, gen, m.B.NumItems(), m.T.NumCols())
	if err != nil {
		return SessionInfo{}, fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	return SessionInfo{Session: sess.ID, Table: name}, nil
}

// SessionStatus reports one session's state; unknown ids return ErrNotFound.
func (s *Service) SessionStatus(id string) (SessionInfo, error) {
	sess, ok := s.sessions.Get(id)
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	return SessionInfo{
		Session: sess.ID,
		Table:   sess.Table,
		Views:   sess.Views(),
		Covered: sess.Covered().Count(),
	}, nil
}

// DeleteSession closes a session; unknown ids return ErrNotFound.
func (s *Service) DeleteSession(id string) error {
	if !s.sessions.Delete(id) {
		return fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	return nil
}

// sessionModel resolves a session's table, refusing stale sessions: the
// table was replaced or removed since the session opened, so the session's
// covered strata and anchor rows describe data that no longer exists.
func (s *Service) sessionModel(sess *session.Session) (*core.Model, error) {
	if s.store.Generation(sess.Table) != sess.Gen {
		return nil, fmt.Errorf("%w: session %s: table %q was replaced; open a new session", ErrExists, sess.ID, sess.Table)
	}
	m, err := s.store.Get(sess.Table)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// sessionBias folds the session's state into the per-column bias vector, or
// nil when wt is nil (unbiased column step).
func sessionBias(m *core.Model, sess *session.Session, wt *SessionWeights) []float64 {
	if wt == nil || (wt.NullRate == 0 && wt.ViewCount == 0) {
		return nil
	}
	nulls := m.ColumnNullRates()
	views := sess.ViewCounts()
	bias := make([]float64, len(nulls))
	for c := range bias {
		v := 0.0
		if c < len(views) {
			v = float64(views[c])
		}
		bias[c] = 1 / (1 + wt.NullRate*nulls[c] + wt.ViewCount*v)
	}
	return bias
}

// SessionSelect runs one session-scoped selection: the predicate
// conjunction streams over the code source (never materializing a resident
// table), strata previous views covered are deprioritized in the sampler,
// and the view is folded back into the session before returning. Admission
// control and the per-table concurrency limit apply exactly as for Select.
func (s *Service) SessionSelect(id string, preds []query.Predicate, k, l int, targets []string, scale *core.ScaleOptions, wt *SessionWeights) (*core.SubTable, error) {
	sess, ok := s.sessions.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	return s.explore(sess.Table, sess, wt, core.ExploreSpec{Where: preds, K: k, L: l, Targets: targets, Scale: scale})
}

// SessionDrillDown expands an anchor from the session's last view into its
// neighborhood and selects the next view inside it. row is a source row of
// the last view; col, when non-empty, names a column of the last view (a
// cell anchor — the neighborhood is the rows sharing that cell's bin),
// otherwise the whole row anchors. The anchor must come from the last
// view; sessions without a view yet are refused.
func (s *Service) SessionDrillDown(id string, row int, col string, k, l int, targets []string, scale *core.ScaleOptions, wt *SessionWeights) (*core.SubTable, int, error) {
	sess, ok := s.sessions.Get(id)
	if !ok {
		return nil, 0, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	m, err := s.sessionModel(sess)
	if err != nil {
		return nil, 0, err
	}
	ci := -1
	if col != "" {
		if ci = m.T.ColumnIndex(col); ci < 0 {
			return nil, 0, fmt.Errorf("%w: table %s: unknown column %q", ErrBadRequest, sess.Table, col)
		}
	}
	scope, err := sess.DrillDown(m, row, ci)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	st, err := s.explore(sess.Table, sess, wt, core.ExploreSpec{Scope: scope, K: k, L: l, Targets: targets, Scale: scale})
	if err != nil {
		return nil, 0, err
	}
	return st, len(scope), nil
}
