package serve

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"

	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/rules"
	"subtab/internal/session"
	"subtab/internal/table"
)

// ErrExists is returned by AddTable when the name is already taken and
// replacement was not requested.
var ErrExists = errors.New("serve: table already exists")

// ErrBadRequest wraps failures caused by the request itself — unknown
// columns, impossible dimensions, bad mining knobs, a request the table's
// layout cannot serve (core.Refusal) — as opposed to faults of the
// service; the HTTP layer maps this to 400.
var ErrBadRequest = errors.New("serve: bad request")

// ErrOverloaded wraps load-shedding refusals: a select whose estimated
// working set cannot be admitted under the memory budget, or a table
// already at its concurrency limit. The request is valid and may well
// succeed later — the HTTP layer maps this to 429 + Retry-After.
var ErrOverloaded = errors.New("serve: overloaded")

// Service exposes SubTab's interactive operations — select, select-query,
// mine-rules, highlight — over named tables, backed by a Store so that each
// table's pre-processing happens once no matter how many concurrent sessions
// request it. All methods are safe for concurrent use: models are immutable
// after pre-processing, so any number of selections can run against one
// model in parallel.
type Service struct {
	store    *Store
	defaults core.Options

	// gov and limiter, when set (SetAdmission), shed selects at the door:
	// gov admits each select's estimated transient working set against the
	// process budget, limiter bounds per-table concurrency. Both are
	// nil-safe, so the ungoverned path has no branches to configure.
	gov     *memgov.Governor
	limiter *memgov.Limiter

	// sessions holds the live exploration sessions of the /v1 API.
	sessions *session.Manager
}

// NewService returns a service over the given store; defaults are the
// pipeline options used when AddTable is called without explicit options.
func NewService(store *Store, defaults core.Options) *Service {
	return &Service{
		store:    store,
		defaults: defaults,
		sessions: session.NewManager(0),
	}
}

// Store returns the underlying model store (for stats reporting).
func (s *Service) Store() *Store { return s.store }

// SetAdmission installs request admission control: selects reserve their
// estimated working set with gov (failure sheds with ErrOverloaded → 429)
// and at most perTable selects run concurrently against one table
// (perTable <= 0 disables the limit). Call before serving; typically gov
// is the same governor the store was built with.
func (s *Service) SetAdmission(gov *memgov.Governor, perTable int) {
	s.gov = gov
	s.limiter = memgov.NewLimiter(perTable)
}

// Governor returns the installed admission governor (nil when ungoverned).
func (s *Service) Governor() *memgov.Governor { return s.gov }

// LimiterRejections returns how many requests the per-table concurrency
// limit shed.
func (s *Service) LimiterRejections() int64 { return s.limiter.Rejected() }

// TableInfo describes one table known to the service. Rows, Cols and
// Columns are filled only for models resident in memory; disk-only models
// report Loaded == false and are materialized on first use.
type TableInfo struct {
	Name    string   `json:"name"`
	Loaded  bool     `json:"loaded"`
	Rows    int      `json:"rows,omitempty"`
	Cols    int      `json:"cols,omitempty"`
	Columns []string `json:"columns,omitempty"`
	// OutOfCore reports that the model's bin codes and displayed cells are
	// served from on-disk stores rather than memory: selections read code
	// blocks and render by gathering only the selected rows' cell blocks.
	OutOfCore bool `json:"out_of_core,omitempty"`
	// Shards is the shard count of a sharded table (0 otherwise);
	// LocalShards counts how many of them this instance holds — fewer
	// than Shards on a coordinator that samples the rest from peers.
	Shards      int `json:"shards,omitempty"`
	LocalShards int `json:"local_shards,omitempty"`
}

// Layout says where an added table's bin codes and displayed cells live.
// Unsharded, the store keeps the table as its one model file, with them as
// store images after its header, and serves them mmap'd from that file (a
// select streams the code blocks it samples and gathers only the displayed
// rows' cells). Shards(n) writes them to n row-range shard file pairs
// beside the model file, whose codes and cells sections hold the shard map;
// worker instances can split the pairs between them.
type Layout int

// Unsharded is the layout of a table kept whole.
const Unsharded Layout = 0

// Shards is the layout of n row-range shards (n >= 1; n = 1 is a one-shard
// table).
func Shards(n int) Layout { return Layout(n) }

// maxShards bounds an added table's shard count. Each shard is two files,
// so this caps the files one upload writes.
const maxShards = 256

// AddTable pre-processes t and registers it under name, its codes and cells
// in layout l. Selections are bit-identical in every layout, and disk
// reloads come back in the layout the table was added with. With replace
// false, a name that is already served returns ErrExists — a model file
// that does not load (damaged, or in a retired format) serves nothing, so
// the add writes over it and its store files; with replace true, the new
// model overwrites the old one (and its caches, mined rules included,
// leave with it), and once the new model file is in place every file of
// the name that the new model does not use is deleted. An
// unsharded table commits by one rename of its model file, so a failed
// replace leaves the old table whole.
//
// Every add builds, pages out, persists and inserts under the table's
// name lock, so two uploads of one name serialize instead of pairing one
// model with the other's files: of concurrent adds that do not replace,
// one runs Preprocess and the rest return ErrExists.
func (s *Service) AddTable(name string, t *table.Table, opt *core.Options, l Layout, replace bool) (*core.Model, error) {
	if strings.TrimSpace(name) == "" {
		return nil, errors.New("serve: table name must not be empty")
	}
	if err := s.checkLayout(l, t.NumRows()); err != nil {
		return nil, err
	}
	o := s.defaults
	if opt != nil {
		o = *opt
	}
	nl := s.store.lockName(name)
	nl.Lock()
	defer nl.Unlock()
	if !replace && s.store.serves(name) {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	m, err := core.Preprocess(t, o)
	if err != nil {
		return nil, err
	}
	files, err := s.pageOut(name, m, l, 0)
	if err == nil {
		m, err = s.store.putLocked(name, m, l)
	}
	if err != nil {
		// Do not strand shard files whose model never registered.
		for _, f := range files {
			os.Remove(f)
		}
		return nil, err
	}
	s.store.builds.Add(1)
	return m, nil
}

// checkLayout refuses, before any file is written, a layout the store or
// the table cannot hold.
func (s *Service) checkLayout(l Layout, rows int) error {
	switch {
	case l == Unsharded:
		return nil
	case l < 0:
		return fmt.Errorf("%w: shard count must be positive, got %d", ErrBadRequest, l)
	case l > maxShards:
		return fmt.Errorf("%w: %d shards exceed the limit of %d", ErrBadRequest, l, maxShards)
	case l > 1 && int(l) > rows:
		return fmt.Errorf("%w: %d shards for %d rows: every shard needs a row", ErrBadRequest, l, rows)
	}
	return nil
}

// pageOut writes m's codes and cells to the shard files of a sharded
// layout l next to name's model file (nothing for an unsharded one, whose
// model file holds them) and switches m onto them. It returns the files of
// the layout, also on error, so a failed add can delete what it wrote.
func (s *Service) pageOut(name string, m *core.Model, l Layout, blockRows int) ([]string, error) {
	if l <= 0 {
		return nil, nil
	}
	codes, cells := s.store.layoutPaths(name, l)
	files := slices.Concat(codes, cells)
	if err := os.MkdirAll(s.store.opt.Dir, 0o755); err != nil {
		return files, err
	}
	return files, m.PageOut(codes, cells, true, blockRows)
}

// layoutOf is the layout a served model is in.
func layoutOf(m *core.Model) Layout {
	if src := m.ShardSource(); src != nil {
		return Shards(src.NumShards())
	}
	return Unsharded
}

// AppendRows ingests rows into the named table via core.Model.Append: the
// replacement model is built off to the side (bin boundaries, embeddings
// and caches reused incrementally; full re-preprocess only on drift) and
// swapped in under the store's per-name lock with a generation bump, so
// selections in flight finish against the model they started with and
// concurrent appends compose instead of losing rows. Rules mined over the
// old rows stay cached on the old model only.
//
// Tables stay paged: Append materializes resident codes and cells to build
// the successor, and the store persists it in the table's layout — an
// unsharded successor into a new model file, renamed over the old one and
// served from its mapping, a sharded one paged out again over the table's
// shard files in their block size first — so a table's memory bound
// survives its appends. In-flight selections on the old model keep reading
// the replaced files through their mappings.
func (s *Service) AppendRows(name string, rows *table.Table, opt core.AppendOptions) (*core.Model, core.AppendStats, error) {
	var stats core.AppendStats
	m, err := s.store.Update(name, func(cur *core.Model) (*core.Model, error) {
		// A coordinator does not hold the rows; appends belong on the
		// instances that own the shards.
		if err := cur.RequireLocal(core.ReasonRemoteAppend); err != nil {
			return nil, fmt.Errorf("%w: table %q: %w", ErrBadRequest, name, err)
		}
		next, st, err := cur.Append(rows, opt)
		if err != nil {
			// Append fails only on request-shaped faults (schema mismatch
			// with the served table); the model itself is untouched.
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		stats = st
		if next != cur {
			if _, err := s.pageOut(name, next, layoutOf(cur), cur.B.Source().BlockRows()); err != nil {
				return nil, fmt.Errorf("serve: paging out %q after append: %w", name, err)
			}
		}
		return next, nil
	})
	if err != nil {
		return nil, stats, err
	}
	return m, stats, nil
}

// RemoveTable drops the named table from memory and disk, closing any
// exploration sessions opened on it (their state describes removed data).
func (s *Service) RemoveTable(name string) {
	s.store.Remove(name)
	s.sessions.DeleteTable(name)
}

// Model returns the pre-processed model for name, loading it from the disk
// cache if it was evicted from memory.
func (s *Service) Model(name string) (*core.Model, error) {
	return s.store.Get(name)
}

// Tables lists every table known to the service.
func (s *Service) Tables() []TableInfo {
	names := s.store.Names()
	infos := make([]TableInfo, 0, len(names))
	for _, name := range names {
		infos = append(infos, s.info(name))
	}
	return infos
}

// Info describes one table; unknown names return ErrNotFound.
func (s *Service) Info(name string) (TableInfo, error) {
	if !s.store.Contains(name) {
		return TableInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return s.info(name), nil
}

func (s *Service) info(name string) TableInfo {
	info := TableInfo{Name: name}
	s.store.mu.Lock()
	el, ok := s.store.entries[name]
	var m *core.Model
	if ok {
		m = el.Value.(*storeEntry).model
	}
	s.store.mu.Unlock()
	if m == nil {
		return info
	}
	info.Loaded = true
	info.Rows = m.T.NumRows()
	info.Cols = m.T.NumCols()
	info.Columns = m.T.ColumnNames()
	info.OutOfCore = m.OutOfCore()
	if src := m.ShardSource(); src != nil {
		info.Shards = src.NumShards()
		for i := 0; i < src.NumShards(); i++ {
			if src.ShardAvailable(i) {
				info.LocalShards++
			}
		}
	}
	return info
}

// Select picks a k×l sub-table of the named table as spec describes: the
// whole table, a predicate conjunction, or a query result, with spec.Scale
// overriding the model's large-table mode for this request only. Selections
// are safe at any level of concurrency — every path samples and clusters
// into request-local state. With admission control installed (SetAdmission),
// the request's working set is reserved under the memory budget for the
// duration of the select and the per-table concurrency limit applies;
// refusals return ErrOverloaded.
func (s *Service) Select(name string, spec core.ExploreSpec) (*core.SubTable, error) {
	return s.explore(name, nil, nil, spec)
}

// explore is the one admit → select → record path behind Select,
// SessionSelect and SessionDrillDown. With a session, its state is folded
// into the spec (coverage bias, column weights) and the returned view is
// folded back into the session.
func (s *Service) explore(name string, sess *session.Session, wt *SessionWeights, spec core.ExploreSpec) (*core.SubTable, error) {
	if err := wt.check(); err != nil {
		return nil, err
	}
	release, ok := s.limiter.Acquire(name)
	if !ok {
		return nil, fmt.Errorf("%w: table %q is at its concurrency limit", ErrOverloaded, name)
	}
	defer release()
	var m *core.Model
	var err error
	if sess != nil {
		m, err = s.sessionModel(sess)
	} else {
		m, err = s.store.Get(name)
	}
	if err != nil {
		return nil, err
	}
	if sess != nil {
		spec.ColBias = sessionBias(m, sess, wt)
		// The coverage bias engages only once the session has shown
		// something: a fresh session's first select is byte-identical to
		// the sessionless path (and keeps its sample-cache hits), and
		// without predicates or weights it is the model's overview, served
		// from its overview memo after the first.
		if sess.Views() > 0 {
			spec.Covered = sess.Covered()
		}
	}
	need, err := m.ReserveBytes(spec)
	if err != nil {
		return nil, selectError(err)
	}
	done, err := s.gov.Admit(memgov.ClassRequests, need)
	if err != nil {
		// Keep the *memgov.ErrOverBudget in the chain: the HTTP layer reads
		// its Retry-After hint off the wrapped error.
		return nil, fmt.Errorf("%w: select on %q: %w", ErrOverloaded, name, err)
	}
	defer done()
	st, err := m.SelectExplore(spec)
	if err != nil {
		return nil, selectError(err)
	}
	if sess != nil {
		sess.RecordView(m.ViewItems(st), st.SourceRows, st.ColIdx)
	}
	return st, nil
}

// selectError sorts a selection error by whose it is. A refusal (the spec
// is malformed, or the table's layout cannot serve it) and an empty match
// are the request's: ErrBadRequest. Anything else is the executor failing —
// a dead shard peer, a column-store checksum mismatch — and
// keeps its chain for the HTTP layer's 500.
func selectError(err error) error {
	var refusal *core.Refusal
	if errors.As(err, &refusal) || errors.Is(err, core.ErrNoRows) {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return err
}

// Rules mines association rules over the named table's binned
// representation, returning them together with the model they were mined
// against (label rule items against that model, never a freshly fetched
// one — the table may have been replaced in between). Results are cached
// on the model (core.Model.Rules), so a replaced or evicted table's rules
// leave with its model.
func (s *Service) Rules(name string, opt rules.Options) ([]rules.Rule, *core.Model, error) {
	m, err := s.store.Get(name)
	if err != nil {
		return nil, nil, err
	}
	// Mining walks every code block; a coordinator holding only some shards
	// cannot do that locally.
	if err := m.RequireLocal(core.ReasonRemoteRules); err != nil {
		return nil, nil, fmt.Errorf("%w: table %q: %w", ErrBadRequest, name, err)
	}
	rs, err := m.Rules(opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return rs, m, nil
}

// Highlight renders st with the association-rule patterns it exemplifies
// marked in the view (the paper's Figure 1 UI), returning the rendered view
// and one rule label per sub-table row (empty when the row exemplifies no
// rule). Rules are mined (or served from cache) with the given options.
func (s *Service) Highlight(name string, opt rules.Options, st *core.SubTable) (string, []string, error) {
	rs, m, err := s.Rules(name, opt)
	if err != nil {
		return "", nil, err
	}
	hl, perRow := core.Highlight(m.B, rs, st)
	labels := make([]string, len(perRow))
	for i, ri := range perRow {
		if ri >= 0 {
			labels[i] = rs[ri].Label(m.B)
		}
	}
	return st.View.Render(hl), labels, nil
}
