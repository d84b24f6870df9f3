package core

import (
	"fmt"

	"subtab/internal/colstore"
	"subtab/internal/f32"
	"subtab/internal/table"
)

// Paged raw columns: a model's displayed cells — the per-cell state only the
// final k×l view assembly reads — can live in an on-disk column store
// (internal/colstore) instead of memory, completing the out-of-core story
// the code store began. ExportColumnStore writes them, AttachColumnStore
// switches view assembly to gather through the store, and DropInlineCells
// releases the in-memory columns; from then on a selection renders by
// fetching only the selected rows' blocks. Rendered views are byte-identical
// to the in-memory path. Operations that need the raw table back — query
// evaluation, incremental append — transparently materialize a private
// resident copy (the analogue of binning.MaterializedCodes).

// cellMaterializer is the optional CellSource extension a local column store
// provides; over-the-wire coordinator sources cannot (and the operations
// that need it are rejected on coordinators before reaching here).
type cellMaterializer interface {
	MaterializeTable(name string) (*table.Table, error)
}

// ExportColumnStore writes the model's raw displayed columns to a paged
// column store file at path (blockRows <= 0 uses colstore.DefaultBlockRows).
// The store is written to a temp file and renamed into place, so a crash
// cannot leave a plausible partial store behind.
func (m *Model) ExportColumnStore(path string, blockRows int) error {
	if !m.T.CellsResident() {
		return fmt.Errorf("core: exporting column store: table cells are already paged")
	}
	if err := colstore.WriteTable(path, m.T, blockRows); err != nil {
		return fmt.Errorf("core: exporting column store: %w", err)
	}
	return nil
}

// AttachColumnStore attaches an external cell source (typically an opened
// colstore.Store for a file ExportColumnStore wrote, or a coordinator's
// over-the-wire shard gatherer) after validating its geometry against the
// table schema. Attach before the model starts serving; it must not race
// in-flight selections.
func (m *Model) AttachColumnStore(src table.CellSource) error {
	if src.NumRows() != m.T.NumRows() {
		return fmt.Errorf("core: cell source has %d rows, table has %d", src.NumRows(), m.T.NumRows())
	}
	if src.NumCols() != m.T.NumCols() {
		return fmt.Errorf("core: cell source has %d columns, table has %d", src.NumCols(), m.T.NumCols())
	}
	for c := 0; c < m.T.NumCols(); c++ {
		if got, want := src.ColumnName(c), m.T.ColumnAt(c).Name; got != want {
			return fmt.Errorf("core: cell source column %d is %q, table has %q", c, got, want)
		}
	}
	m.cellSrc = src
	return nil
}

// DropInlineCells releases the in-memory raw columns of a model with an
// attached cell source, leaving the table as a schema husk (names, kinds and
// row count only). The bin counts are computed first so no later stage needs
// the cells back for counting. Like AttachColumnStore, not safe to race
// in-flight selections.
func (m *Model) DropInlineCells() error {
	if m.cellSrc == nil {
		return fmt.Errorf("core: dropping inline cells without an attached cell source")
	}
	m.cachedBinCounts()
	m.T.DropCells()
	return nil
}

// UseColumnStoreFile is the one-call form of the export→open→attach→drop
// sequence: it writes the model's raw columns to path, opens the store,
// switches view assembly onto it and releases the inline columns. The
// returned store is owned by the model for reading but may be Closed by the
// caller when the model is discarded (unclosed stores release their mapping
// when garbage collected).
func (m *Model) UseColumnStoreFile(path string, blockRows int) (*colstore.Store, error) {
	if err := m.ExportColumnStore(path, blockRows); err != nil {
		return nil, err
	}
	cs, err := colstore.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: reopening exported column store: %w", err)
	}
	if err := m.AttachColumnStore(cs); err != nil {
		cs.Close()
		return nil, err
	}
	if err := m.DropInlineCells(); err != nil {
		cs.Close()
		return nil, err
	}
	return cs, nil
}

// CellsPaged reports whether the model's raw columns are store-backed
// (inline cells dropped).
func (m *Model) CellsPaged() bool { return !m.T.CellsResident() }

// CellSource returns the attached cell source (nil when views are assembled
// from the in-memory table).
func (m *Model) CellSource() table.CellSource { return m.cellSrc }

// residentTable returns m.T when its cells are resident, else a private
// typed copy materialized from the attached cell source — the whole-table
// escape hatch for query evaluation and append. The copy is never installed
// on the model; callers own it and its footprint.
func (m *Model) residentTable() (*table.Table, error) {
	if m.T.CellsResident() {
		return m.T, nil
	}
	mat, ok := m.cellSrc.(cellMaterializer)
	if !ok {
		return nil, fmt.Errorf("core: table cells are paged and the cell source cannot materialize them (a coordinator's over-the-wire source?)")
	}
	return mat.MaterializeTable(m.T.Name)
}

// ReleaseVectorCache frees the model's full-table tuple-vector cache and the
// memoized candidate samples — the two per-model caches that grow with the
// table — and settles both to zero bytes with the governor. Serving layers
// call it when a model leaves the warm set (store eviction), so an evicted
// tenant's O(rows×dim) cache does not outlive its residency even while
// other references to the model exist. Safe to race in-flight selections:
// a selection that already took a header copy of the matrix keeps its
// (immutable) backing array; a build racing this release re-publishes and
// re-accounts under a later generation. Safe to call under the serving
// store's mutex — the settles here only ever shrink, and Shrink never runs
// eviction callbacks.
func (m *Model) ReleaseVectorCache() {
	m.fullVecsMu.Lock()
	m.fullVecsReady.Store(false)
	m.fullVecs = f32.Matrix{}
	m.fullVecsGen++
	vgen := m.fullVecsGen
	m.fullVecsMu.Unlock()
	m.vecAccount().Settle(vgen, 0)

	m.sampleMu.Lock()
	m.sampleCache = nil
	m.sampleGen++
	sgen := m.sampleGen
	m.sampleMu.Unlock()
	m.sampleAccount().Settle(sgen, 0)

	if r, ok := m.shardSampler.(CacheReleaser); ok {
		r.ReleaseCache()
	}
}
