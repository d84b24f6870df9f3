package serve

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/rules"
	"subtab/internal/session"
	"subtab/internal/shard"
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
	// OutOfCore reports that the model's bin codes are served from an
	// external code store rather than memory.
	OutOfCore bool `json:"out_of_core,omitempty"`
	// PagedColumns reports that the model's raw displayed columns are served
	// from an on-disk paged column store: selections render by gathering
	// only the selected rows' blocks instead of holding every cell resident.
	PagedColumns bool `json:"paged_columns,omitempty"`
	// Shards is the shard count of a sharded table (0 otherwise);
	// LocalShards counts how many of them this instance holds — fewer
	// than Shards on a coordinator that samples the rest from peers.
	Shards      int `json:"shards,omitempty"`
	LocalShards int `json:"local_shards,omitempty"`
}

// AddTable pre-processes t and registers it under name. Concurrent AddTable
// and Select calls for the same name share a single Preprocess run. With
// replace false, a name that is already served returns ErrExists; with
// replace true, the new model overwrites the old one (and its caches,
// mined rules included, leave with it).
func (s *Service) AddTable(name string, t *table.Table, opt *core.Options, replace bool) (*core.Model, error) {
	if strings.TrimSpace(name) == "" {
		return nil, errors.New("serve: table name must not be empty")
	}
	o := s.defaults
	if opt != nil {
		o = *opt
	}
	build := func() (*core.Model, error) { return core.Preprocess(t, o) }
	if !replace {
		if s.store.Contains(name) {
			return nil, fmt.Errorf("%w: %q", ErrExists, name)
		}
		return s.store.GetOrBuild(name, build)
	}
	m, err := build()
	if err != nil {
		return nil, err
	}
	if err := s.store.Put(name, m); err != nil {
		return nil, err
	}
	return m, nil
}

// AddTableOutOfCore is AddTable for tables that should serve out-of-core:
// after pre-processing, the bin codes are exported to a code store file in
// the disk cache, the model is switched onto it and the inline codes are
// released, so the served model's resident footprint excludes the per-cell
// code matrix and scaled selections stream the store instead. The raw
// displayed columns page out the same way, to a sibling column store file:
// view assembly gathers the selected rows' blocks instead of indexing an
// in-memory table. The persisted model references both store files
// (modelio v5/v7), so disk reloads come back out-of-core too. Requires a disk-backed store; selections are
// bit-identical to the in-memory path. The whole build — export, attach,
// persist, insert — runs under the table's per-name lock, so concurrent
// uploads of one name serialize instead of pairing one upload's model with
// the other's code store.
func (s *Service) AddTableOutOfCore(name string, t *table.Table, opt *core.Options, replace bool) (*core.Model, error) {
	if strings.TrimSpace(name) == "" {
		return nil, errors.New("serve: table name must not be empty")
	}
	csPath, err := s.store.CodeStorePath(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	colsPath, err := s.store.ColumnStorePath(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	nl := s.store.lockName(name)
	nl.Lock()
	defer nl.Unlock()
	if !replace && s.store.Contains(name) {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	o := s.defaults
	if opt != nil {
		o = *opt
	}
	m, err := core.Preprocess(t, o)
	if err != nil {
		return nil, err
	}
	if _, err := m.UseCodeStoreFile(csPath, 0); err != nil {
		return nil, err
	}
	// Page out the raw displayed columns too: with both stores external the
	// resident model is schema + binnings + embedding, and a select gathers
	// only the k chosen rows' cell blocks back.
	if _, err := m.UseColumnStoreFile(colsPath, 0); err != nil {
		os.Remove(csPath)
		return nil, err
	}
	if err := s.store.putLocked(name, m); err != nil {
		// Do not strand stores whose model never registered.
		os.Remove(csPath)
		os.Remove(colsPath)
		return nil, err
	}
	return m, nil
}

// AddTableSharded is AddTableOutOfCore with the code store split into
// shards: the bin codes export into `shards` codestore files (rows cut
// evenly), the model serves scaled selections by scattering one goroutine
// per shard, and a sidecar shard-map file records the layout so Remove
// can delete every shard and external tooling can address them. The raw
// displayed columns export into column-store shards cut at the same rows,
// so each worker instance holds the cells its code shard can select. The
// persisted model references the shard map and column shards (modelio
// v6/v7); selections stay bit-identical to the single-store and in-memory
// paths.
func (s *Service) AddTableSharded(name string, t *table.Table, opt *core.Options, shards int, replace bool) (*core.Model, error) {
	if strings.TrimSpace(name) == "" {
		return nil, errors.New("serve: table name must not be empty")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrBadRequest, shards)
	}
	paths, err := s.store.ShardPaths(name, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	colPaths, err := s.store.ColumnShardPaths(name, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	nl := s.store.lockName(name)
	nl.Lock()
	defer nl.Unlock()
	if !replace && s.store.Contains(name) {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	o := s.defaults
	if opt != nil {
		o = *opt
	}
	m, err := core.Preprocess(t, o)
	if err != nil {
		return nil, err
	}
	src, err := m.UseShardedStores(paths, 0)
	if err != nil {
		return nil, err
	}
	cleanup := func() {
		for _, p := range paths {
			os.Remove(p)
		}
		for _, p := range colPaths {
			os.Remove(p)
		}
		os.Remove(s.store.shardMapPath(name))
	}
	// The raw displayed columns shard at the same row cuts as the codes, so
	// a worker instance given shard i's code file and column file holds
	// everything a scatter touching shard i needs: codes to scan, cells to
	// render.
	if _, err := m.UseShardedColumnStores(colPaths, 0); err != nil {
		cleanup()
		return nil, err
	}
	if err := shard.WriteFile(s.store.shardMapPath(name), src.Map()); err != nil {
		cleanup()
		return nil, fmt.Errorf("serve: writing shard map for %q: %w", name, err)
	}
	if err := s.store.putLocked(name, m); err != nil {
		cleanup()
		return nil, err
	}
	return m, nil
}

// AppendRows ingests rows into the named table via core.Model.Append: the
// replacement model is built off to the side (bin boundaries, embeddings
// and caches reused incrementally; full re-preprocess only on drift) and
// swapped in under the store's per-name lock with a generation bump, so
// selections in flight finish against the model they started with and
// concurrent appends compose instead of losing rows. Rules mined over the
// old rows stay cached on the old model only.
//
// Out-of-core tables stay out-of-core: Append materializes inline codes
// to build the successor, so the successor's codes are re-exported over
// the table's store file and dropped again before the swap — the memory
// bound the table was uploaded under survives its appends. Paged raw
// columns re-export the same way, over the table's column store (or its
// column shards). In-flight selections on the old model keep reading the
// replaced stores through their open mappings.
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
		changed := next != cur
		switch {
		case changed && cur.ShardSource() != nil && next.ShardSource() == nil:
			// Sharded tables stay sharded: re-export the successor's codes
			// into the same shard count and granularity and rewrite the
			// sidecar map. In-flight selections keep their open mappings of
			// the replaced shard files.
			cursrc := cur.ShardSource()
			paths, perr := s.store.ShardPaths(name, cursrc.NumShards())
			if perr != nil {
				return nil, fmt.Errorf("serve: re-exporting shards after append: %w", perr)
			}
			nsrc, err := next.UseShardedStores(paths, cursrc.BlockRows())
			if err != nil {
				return nil, fmt.Errorf("serve: re-exporting shards after append: %w", err)
			}
			if err := shard.WriteFile(s.store.shardMapPath(name), nsrc.Map()); err != nil {
				return nil, fmt.Errorf("serve: rewriting shard map after append: %w", err)
			}
			if cur.CellsPaged() && !next.CellsPaged() {
				// Paged columns stay paged, re-sharded at the successor's cuts.
				colPaths, perr := s.store.ColumnShardPaths(name, cursrc.NumShards())
				if perr != nil {
					return nil, fmt.Errorf("serve: re-exporting column shards after append: %w", perr)
				}
				blockRows := 0
				if sc := cur.ShardCells(); sc != nil && sc.NumShards() > 0 {
					blockRows = sc.Desc(0).BlockRows
				}
				if _, err := next.UseShardedColumnStores(colPaths, blockRows); err != nil {
					return nil, fmt.Errorf("serve: re-exporting column shards after append: %w", err)
				}
			}
		case changed && cur.OutOfCore() && !next.OutOfCore():
			csPath, perr := s.store.CodeStorePath(name)
			if perr != nil {
				return nil, fmt.Errorf("serve: re-exporting code store after append: %w", perr)
			}
			if _, err := next.UseCodeStoreFile(csPath, 0); err != nil {
				return nil, fmt.Errorf("serve: re-exporting code store after append: %w", err)
			}
			if cur.CellsPaged() && !next.CellsPaged() {
				colsPath, perr := s.store.ColumnStorePath(name)
				if perr != nil {
					return nil, fmt.Errorf("serve: re-exporting column store after append: %w", perr)
				}
				if _, err := next.UseColumnStoreFile(colsPath, 0); err != nil {
					return nil, fmt.Errorf("serve: re-exporting column store after append: %w", err)
				}
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
	info.PagedColumns = m.CellsPaged()
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
		// the sessionless path (and keeps its sample-cache hits).
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
// a dead shard peer, spill-file I/O, a column-store checksum mismatch — and
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
