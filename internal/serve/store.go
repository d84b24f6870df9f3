// Package serve is SubTab's concurrent serving layer. The paper's two-phase
// design makes every display interactive *after* a table's one-off
// pre-processing; this package amortizes that pre-processing across
// requests, sessions and process restarts:
//
//   - Store is a concurrency-safe model cache over one directory: every
//     table is persisted there through package modelio and served mapped
//     from its file, the models in memory are LRU-bounded and governed,
//     and a load is singleflight-deduplicated (N concurrent requests for a
//     table on disk run exactly one load), so evicted or restarted models
//     reload in milliseconds instead of re-training. A table's overview
//     memo belongs to its generation, not to a model: a reload of the same
//     generation renders its overviews without choosing them again, while
//     a replace, append, remove or restart starts empty.
//   - Service exposes the user-facing operations — select, select-query,
//     mine-rules, highlight — over named tables.
//   - NewHandler adapts a Service to an HTTP/JSON API (cmd/subtab-server).
package serve

import (
	"container/list"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"subtab/internal/blockfile"
	"subtab/internal/core"
	"subtab/internal/memgov"
	"subtab/internal/modelio"
)

// ErrNotFound is returned for operations on tables the store does not know.
var ErrNotFound = errors.New("serve: table not found")

// DefaultMaxModels is the default in-memory LRU bound.
const DefaultMaxModels = 8

// StoreOptions configures a Store.
type StoreOptions struct {
	// MaxModels bounds the number of models held in memory (<= 0 uses
	// DefaultMaxModels); evicted models survive on disk and reload on
	// demand.
	MaxModels int
	// Dir is the directory every table's model file (and a sharded table's
	// shard files) is written to and loaded from; it is required. It is
	// created on first use.
	Dir string
	// AllowMissingShards loads sharded models whose shard files are partly
	// absent (a coordinator owning the model but not every shard). Present
	// shards still validate against the model's shard map; selections on
	// such a model need a scatter/gather sampler, installed via
	// PrepareModel.
	AllowMissingShards bool
	// PrepareModel, when non-nil, runs on every model served from the disk
	// cache before it is installed — the hook a coordinator uses to attach
	// its shard-peer sampler to reloaded sharded models. It must be safe
	// for concurrent use and must not mutate models already serving.
	PrepareModel func(name string, m *core.Model) error
	// Governor, when non-nil, byte-accounts every resident model under
	// memgov.ClassModels (each entry weighted by core.Model.ResidentBytes)
	// and registers a cold-end eviction callback, turning the LRU from
	// entry-counted into byte-weighted: any consumer growing past the
	// process budget sheds this store's cold models first. MaxModels stays
	// as a count backstop. Models inserted into a governed store also get
	// core.Model.SetGovernor, so their vector, sample, rules and overview
	// caches settle under their own classes; an evicted table's overview
	// memo stays charged until the evictor drops it (reclaimModels).
	Governor *memgov.Governor
}

// StoreStats are cumulative counters describing cache behavior.
type StoreStats struct {
	Hits      int64 // served from memory
	DiskLoads int64 // served by loading a persisted model
	Builds    int64 // Preprocess runs of successful adds, in every layout
	Evictions int64 // models dropped from memory by the LRU bound
}

// Store is a concurrency-safe, LRU-bounded model cache over one directory.
// It keeps one overview memo (core.OverviewMemo) per table generation and
// hands it to every model of the generation it installs, so a table that
// was evicted and reloaded renders its overviews without choosing them
// again; a replace, an append or a Remove clears it, and a new store
// starts with none.
type Store struct {
	opt StoreOptions

	mu       sync.Mutex
	lru      *list.List // of *storeEntry, front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flightCall
	gen      map[string]uint64      // bumped by putLocked/Remove; stale loads check it
	nameMu   map[string]*sync.Mutex // serializes persist+insert per table name
	memos    map[string]*genMemo    // the overview memo of each name's current generation
	evictSeq uint64                 // numbers evictions, ordering retained memos

	hits, diskLoads, builds, evictions atomic.Int64
}

// genMemo is the overview memo of a name's current generation. It
// outlives the generation's models: an evicted table's memo is retained
// (evicted > 0, the eviction's number) until a model of the generation is
// installed again, the generation ends (putLocked, Remove), or the
// governor reclaims it.
type genMemo struct {
	memo    *core.OverviewMemo
	evicted uint64
}

type storeEntry struct {
	name  string
	model *core.Model
	// bytes is the model's ResidentBytes estimate, accounted under
	// memgov.ClassModels while the entry lives (0 on ungoverned stores).
	// Grows are issued by the insert wrapper after s.mu is released; every
	// removal path (evict, replace, Remove) Shrinks exactly once under
	// s.mu — Shrink is exact and never runs evictors, so the pairing nets
	// correctly whichever side lands first.
	bytes int64
}

// flightCall deduplicates concurrent disk loads of the same table.
type flightCall struct {
	done  chan struct{}
	model *core.Model
	err   error
}

// NewStore returns an empty store. It panics if opt.Dir is empty.
func NewStore(opt StoreOptions) *Store {
	if opt.Dir == "" {
		panic("serve: NewStore needs a directory (StoreOptions.Dir)")
	}
	if opt.MaxModels <= 0 {
		opt.MaxModels = DefaultMaxModels
	}
	s := &Store{
		opt:      opt,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flightCall),
		gen:      make(map[string]uint64),
		nameMu:   make(map[string]*sync.Mutex),
		memos:    make(map[string]*genMemo),
	}
	if opt.Governor != nil {
		// Registered under its own label, not ClassModels: the skip rule
		// exempts a class's own evictors from reclaims that class triggers,
		// but a model insert growing past the budget is exactly when the
		// cold end should shed — and the insert's Grow runs outside s.mu,
		// so self-eviction cannot deadlock. The callback never evicts the
		// hottest entry (the one just inserted or being served).
		opt.Governor.RegisterEvictor("store-lru", s.reclaimModels)
	}
	return s
}

// reclaimModels is the governor's eviction callback: drop cold-end LRU
// entries, which reload from their files on demand, until need bytes were
// freed or only the hottest entry remains; then drop the overview memos
// evicted tables retain, least recently evicted first. Runs without the
// governor lock held, per the memgov contract.
func (s *Store) reclaimModels(need int64) int64 {
	var freed int64
	for freed < need {
		s.mu.Lock()
		back := s.lru.Back()
		if back == nil || back == s.lru.Front() {
			s.mu.Unlock()
			break
		}
		ent := s.lru.Remove(back).(*storeEntry)
		delete(s.entries, ent.name)
		s.opt.Governor.Shrink(memgov.ClassModels, ent.bytes)
		freed += ent.bytes + s.evictLocked(ent)
		s.mu.Unlock()
	}
	for freed < need {
		s.mu.Lock()
		var oldest string
		var og *genMemo
		for name, gm := range s.memos {
			if gm.evicted > 0 && (og == nil || gm.evicted < og.evicted) {
				oldest, og = name, gm
			}
		}
		if og == nil {
			s.mu.Unlock()
			break
		}
		freed += og.memo.Bytes()
		s.dropMemoLocked(oldest)
		s.mu.Unlock()
	}
	return freed
}

// evictLocked releases the caches of ent, which just left the LRU, and
// retains its generation's overview memo. It returns the bytes released.
// Other references to the model — a disk reload that resurrects the
// entry, an in-flight selection — would otherwise keep an O(rows×dim)
// cache alive for a table that left the warm set; a selection racing the
// eviction rebuilds the cache it needs (and keeps the backing array it
// already resolved; see core), and may fill the memo.
func (s *Store) evictLocked(ent *storeEntry) int64 {
	before := ent.model.CacheBytes()
	ent.model.ReleaseSparingOverviews()
	if gm, ok := s.memos[ent.name]; ok {
		s.evictSeq++
		gm.evicted = s.evictSeq
	}
	s.evictions.Add(1)
	return before - ent.model.CacheBytes()
}

// dropMemoLocked clears name's overview memo, settling it to zero bytes,
// and forgets it.
func (s *Store) dropMemoLocked(name string) {
	if gm, ok := s.memos[name]; ok {
		gm.memo.Clear()
		delete(s.memos, name)
	}
}

// shareMemoLocked gives m, about to be installed as name's model, the
// overview memo of name's generation; the first model installed for a
// generation (or after the governor reclaimed its memo) brings the memo
// the generation keeps.
func (s *Store) shareMemoLocked(name string, m *core.Model) {
	gm, ok := s.memos[name]
	if !ok {
		gm = &genMemo{}
		s.memos[name] = gm
	}
	gm.memo = m.ShareOverviews(gm.memo)
	gm.evicted = 0
}

// Stats returns a snapshot of the cache counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Load(),
		DiskLoads: s.diskLoads.Load(),
		Builds:    s.builds.Load(),
		Evictions: s.evictions.Load(),
	}
}

// Get returns the model for name: from memory, else loaded from the disk
// cache at most once across concurrent callers — requests arriving while a
// load is in flight wait for it instead of starting their own (the
// singleflight pattern). It returns ErrNotFound when the table is unknown.
func (s *Store) Get(name string) (*core.Model, error) {
	s.mu.Lock()
	if el, ok := s.entries[name]; ok {
		s.lru.MoveToFront(el)
		m := el.Value.(*storeEntry).model
		s.mu.Unlock()
		s.hits.Add(1)
		return m, nil
	}
	if c, ok := s.inflight[name]; ok {
		s.mu.Unlock()
		<-c.done
		return c.model, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.inflight[name] = c
	startGen := s.gen[name]
	s.mu.Unlock()

	c.model, c.err = s.load(name, startGen)

	s.mu.Lock()
	delete(s.inflight, name)
	s.mu.Unlock()
	close(c.done)
	return c.model, c.err
}

// load reads name's model from disk and installs it, unless the table
// changed generation (an add, Update or Remove) while the load ran: then
// the flight's model is stale and whatever the store holds now wins. A
// missing file is the normal miss; one that does not load (damaged, or in
// a retired format) reads as missing too, its error wrapping the cause
// (modelio.ErrCorrupt, ErrVersion), and the next add writes over it.
func (s *Store) load(name string, startGen uint64) (*core.Model, error) {
	m, err := s.loadDisk(name)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	case err != nil:
		return nil, fmt.Errorf("%w: %q: %w", ErrNotFound, name, err)
	}
	s.diskLoads.Add(1)
	if s.opt.Governor != nil {
		m.SetGovernor(s.opt.Governor)
	}
	s.mu.Lock()
	if s.gen[name] != startGen {
		if el, ok := s.entries[name]; ok {
			m = el.Value.(*storeEntry).model
		}
		s.mu.Unlock()
		return m, nil
	}
	grow := s.insertLocked(name, m)
	s.mu.Unlock()
	s.opt.Governor.Grow(memgov.ClassModels, grow)
	return m, nil
}

// loadDisk reads name's persisted model, honouring the store's shard
// policy and running the PrepareModel hook before anyone can see it.
func (s *Store) loadDisk(name string) (*core.Model, error) {
	m, err := modelio.LoadFileWith(s.path(name), modelio.LoadOptions{AllowMissingShards: s.opt.AllowMissingShards})
	if err != nil {
		return nil, err
	}
	if s.opt.PrepareModel != nil {
		if err := s.opt.PrepareModel(name, m); err != nil {
			return nil, fmt.Errorf("serve: preparing model %q: %w", name, err)
		}
	}
	return m, nil
}

// putLocked is the one write path: it persists m in layout l, deletes
// every file of the name that layout does not use, installs m replacing
// any previous model of the name — in-flight loads of the name that
// finish after it discard their result — and returns the model it
// installed: for an unsharded table the model mapped from its file, for a
// sharded one m.
// Callers hold the per-name lock (AddTable and Update), so the store files
// and the model insert stay one critical section.
func (s *Store) putLocked(name string, m *core.Model, l Layout) (*core.Model, error) {
	m, err := s.persist(name, m, l)
	if err != nil {
		return nil, fmt.Errorf("serve: persisting model %q: %w", name, err)
	}
	codes, cells := s.layoutPaths(name, l)
	s.sweepStores(name, slices.Concat(codes, cells))
	if s.opt.Governor != nil {
		m.SetGovernor(s.opt.Governor)
	}
	s.mu.Lock()
	s.gen[name]++
	s.dropMemoLocked(name)
	grow := s.insertLocked(name, m)
	s.mu.Unlock()
	s.opt.Governor.Grow(memgov.ClassModels, grow)
	return m, nil
}

// Update atomically replaces name's model with fn(current): the
// read-modify-write primitive behind streaming appends. Updates of one name
// are serialized by the per-name lock (two concurrent appends compose
// instead of the second clobbering the first), the generation is bumped so
// in-flight loads of the same name discard their now-stale results, and
// reads are never blocked — selections in flight keep the model they
// resolved, new requests see the replacement as soon as it is installed.
// fn must not mutate the model it is given; it builds and returns a new one
// (core.Model.Append's contract), which is persisted in the current
// model's layout. The returned model is the one installed: for an
// unsharded table, the successor mapped from its new file. Unknown names
// return ErrNotFound.
func (s *Store) Update(name string, fn func(*core.Model) (*core.Model, error)) (*core.Model, error) {
	nl := s.lockName(name)
	nl.Lock()
	defer nl.Unlock()
	s.mu.Lock()
	var cur *core.Model
	if el, ok := s.entries[name]; ok {
		cur = el.Value.(*storeEntry).model
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if cur == nil {
		if m, err := s.loadDisk(name); err == nil {
			s.diskLoads.Add(1)
			cur = m
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	next, err := fn(cur)
	if err != nil {
		return nil, err
	}
	if next == cur {
		// fn declined to change anything (e.g. a zero-row append): no
		// persist, no generation bump, no rules-cache churn — but a model
		// that was just deserialized from disk is worth keeping in memory,
		// or the next request pays the whole load again.
		s.insert(name, cur)
		return cur, nil
	}
	return s.putLocked(name, next, layoutOf(cur))
}

// lockName returns the mutex serializing mutations of one table name.
func (s *Store) lockName(name string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	nl, ok := s.nameMu[name]
	if !ok {
		nl = &sync.Mutex{}
		s.nameMu[name] = nl
	}
	return nl
}

// Contains reports whether name is available in memory or on disk.
func (s *Store) Contains(name string) bool {
	s.mu.Lock()
	_, ok := s.entries[name]
	s.mu.Unlock()
	if ok {
		return true
	}
	_, err := os.Stat(s.path(name))
	return err == nil
}

// serves reports whether name has a model to serve: one in memory, or a
// model file that loads. A file that does not load (damaged, or in a
// retired format) serves nothing. It joins no lookup flight, so an add
// never waits on a Get, and installs nothing: a model loaded to check is
// dropped.
func (s *Store) serves(name string) bool {
	s.mu.Lock()
	_, ok := s.entries[name]
	s.mu.Unlock()
	if ok {
		return true
	}
	_, err := s.loadDisk(name)
	return err == nil
}

// Remove drops name from memory and disk — the model file and every store
// file of the name, whatever its layout — and its overview memo, and
// invalidates any in-flight build of the name so its result is not
// resurrected. Removing an unknown name is a no-op.
func (s *Store) Remove(name string) {
	nl := s.lockName(name)
	nl.Lock()
	defer nl.Unlock()
	s.mu.Lock()
	s.gen[name]++
	if el, ok := s.entries[name]; ok {
		ent := s.lru.Remove(el).(*storeEntry)
		delete(s.entries, name)
		// Unaccount and release like an eviction: the table is gone, its
		// caches must not outlive it through stray model references.
		s.opt.Governor.Shrink(memgov.ClassModels, ent.bytes)
		ent.model.ReleaseVectorCache()
	}
	s.dropMemoLocked(name)
	s.mu.Unlock()
	os.Remove(s.path(name))
	s.sweepStores(name, nil)
}

// Names lists every known table: in-memory models in MRU order followed by
// disk-only models in directory order.
func (s *Store) Names() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.entries))
	seen := make(map[string]bool, len(s.entries))
	for el := s.lru.Front(); el != nil; el = el.Next() {
		n := el.Value.(*storeEntry).name
		names = append(names, n)
		seen[n] = true
	}
	s.mu.Unlock()
	files, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return names
	}
	for _, f := range files {
		base, ok := strings.CutSuffix(f.Name(), modelExt)
		if !ok {
			continue
		}
		raw, err := hex.DecodeString(base)
		if err != nil || seen[string(raw)] {
			continue
		}
		names = append(names, string(raw))
	}
	return names
}

// MemoryLen returns the number of models currently held in memory.
func (s *Store) MemoryLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// insert wires a model into the cache and the governor: it registers the
// model with the governor (so its caches settle under their own classes),
// inserts under s.mu, and issues the entry's ClassModels grow after s.mu is
// released — Grow may run eviction callbacks, which take s.mu.
func (s *Store) insert(name string, m *core.Model) {
	if s.opt.Governor != nil {
		m.SetGovernor(s.opt.Governor)
	}
	s.mu.Lock()
	grow := s.insertLocked(name, m)
	s.mu.Unlock()
	s.opt.Governor.Grow(memgov.ClassModels, grow)
}

// insertLocked adds a model to the LRU, evicting from the cold end past
// MaxModels, and gives it the overview memo of name's generation: every
// model a store installs — the one putLocked persists, a reload, the model
// Update's unchanged path keeps — goes through here, so all the models of
// one generation share one memo. Evicted models release their caches but
// leave the memo to the generation (see evictLocked). Callers hold s.mu;
// the returned byte count must be Grown under memgov.ClassModels once s.mu
// is released (use insert unless already holding s.mu for other
// bookkeeping).
func (s *Store) insertLocked(name string, m *core.Model) (grow int64) {
	if el, ok := s.entries[name]; ok {
		ent := el.Value.(*storeEntry)
		s.lru.MoveToFront(el)
		if ent.model == m {
			return 0 // refresh only (e.g. a zero-row append): nothing changes
		}
		// Replacement: unaccount and release the predecessor — it left the
		// warm set for good, and in-flight selections on it keep their own
		// references to whatever they already resolved. A generation bump
		// has already cleared the predecessor's memo (putLocked); a model of
		// the same generation hands it on.
		old := ent.model
		s.opt.Governor.Shrink(memgov.ClassModels, ent.bytes)
		old.ReleaseSparingOverviews()
		s.shareMemoLocked(name, m)
		ent.model = m
		ent.bytes = s.modelBytes(m)
		return ent.bytes
	}
	s.shareMemoLocked(name, m)
	ent := &storeEntry{name: name, model: m, bytes: s.modelBytes(m)}
	s.entries[name] = s.lru.PushFront(ent)
	grow = ent.bytes
	for len(s.entries) > s.opt.MaxModels {
		back := s.lru.Back()
		if back == nil {
			break
		}
		ev := s.lru.Remove(back).(*storeEntry)
		delete(s.entries, ev.name)
		s.opt.Governor.Shrink(memgov.ClassModels, ev.bytes)
		s.evictLocked(ev)
	}
	return grow
}

// modelBytes is the entry weight of a model in a governed store (0 when
// ungoverned): its ResidentBytes. A model mapped from its file is charged
// its heap (schema, binnings, embedding); its codes and cells are page
// cache, which the kernel sheds on its own.
func (s *Store) modelBytes(m *core.Model) int64 {
	if s.opt.Governor == nil {
		return 0
	}
	return m.ResidentBytes()
}

// modelExt is the on-disk model file suffix. An unsharded table is its
// model file alone. A sharded table's store files sit next to it, named by
// appending codesExt (bin codes) or colsExt (displayed cells) with a
// ".NNN" shard index; the model file's codes and cells sections hold the
// shard map.
const (
	modelExt = ".subtab"
	codesExt = ".codes"
	colsExt  = ".cols"
)

// layoutPaths names the store files a table of layout l keeps beside its
// model file: one code and one column path per row range of a sharded
// layout. Unsharded tables keep none. Every store file of a table is named
// here, as the model path plus an extension, so sweepStores finds all of
// them by that prefix.
func (s *Store) layoutPaths(name string, l Layout) (codes, cells []string) {
	base := s.path(name)
	for i := 0; i < int(l); i++ {
		codes = append(codes, fmt.Sprintf("%s%s.%03d", base, codesExt, i))
		cells = append(cells, fmt.Sprintf("%s%s.%03d", base, colsExt, i))
	}
	return codes, cells
}

// sweepStores deletes every file of name beside its model file that keep
// does not list: the shard files a replaced layout leaves behind, the store
// files an unloadable model file (damaged, or in a retired format that kept
// .codes and .cols files or a .shards map beside it) leaves when an add
// writes over it, and the temp files of an interrupted write — or all of
// them (keep empty) when the table is removed.
func (s *Store) sweepStores(name string, keep []string) {
	files, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return
	}
	prefix := filepath.Base(s.path(name)) + "."
	for _, f := range files {
		p := filepath.Join(s.opt.Dir, f.Name())
		if strings.HasPrefix(f.Name(), prefix) && !slices.Contains(keep, p) {
			os.Remove(p)
		}
	}
}

// Generation returns name's replacement generation: it bumps on every add,
// Update and Remove of the name. Coordinators key cross-request caches on
// it, so samples and cells gathered against a replaced table invalidate
// instead of serving the predecessor's rows.
func (s *Store) Generation(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen[name]
}

// path maps a table name to its cache file. Names are hex-encoded so
// arbitrary user-supplied names (slashes, dots, unicode) cannot escape Dir.
func (s *Store) path(name string) string {
	return filepath.Join(s.opt.Dir, hex.EncodeToString([]byte(name))+modelExt)
}

// saveModel and writeAtomic are modelio.Save and blockfile.WriteAtomic
// outside this package's tests, which swap in stubs that fail a model-file
// commit before or after its rename.
var (
	saveModel   = modelio.Save
	writeAtomic = blockfile.WriteAtomic
)

// persist commits m as name's model file in layout l and returns the model
// to serve: for an unsharded layout the model mapped from the new file, for
// a sharded one m, already paged out over its shard files.
// blockfile.WriteAtomic writes it under the model file's name plus ".tmp"
// (so sweepStores finds what a crashed write left), renames it over the
// model file and syncs the directory: the model file holds the old model
// or the new one, and selects in flight on a mapped old model keep reading
// its inode. A failure before the rename leaves the old model in place and
// is returned. The rename is the commit: after it, the new model is served
// whatever follows — a failed directory sync is logged, and should mapping
// the new file back fail, m serves the same rows from memory.
func (s *Store) persist(name string, m *core.Model, l Layout) (*core.Model, error) {
	if err := os.MkdirAll(s.opt.Dir, 0o755); err != nil {
		return nil, err
	}
	path := s.path(name)
	err := writeAtomic(path, func(tmp string) error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		err = saveModel(f, m, modelio.ResidencyOf(m))
		if err == nil {
			err = f.Sync()
		}
		return errors.Join(err, f.Close())
	})
	if errors.Is(err, blockfile.ErrUnsynced) {
		log.Printf("serve: model %q committed: %v", name, err)
	} else if err != nil {
		return nil, err
	}
	if l == Unsharded {
		mapped, err := modelio.LoadFile(path)
		if err == nil {
			return mapped, nil
		}
		log.Printf("serve: model %q committed, serving it from memory: %v", name, err)
	}
	return m, nil
}
