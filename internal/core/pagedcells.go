package core

import (
	"fmt"

	"subtab/internal/table"
)

// Paged displayed cells: after PageOut (oocore.go) a model's raw columns
// live in a column store, or in column shards cut at the code shards' rows,
// and view assembly gathers only the selected rows' blocks through the
// attached table.CellSource. The table keeps its schema as a husk (names,
// kinds and row count).

// AttachColumnStore attaches an external cell source (an opened column
// store or column shards, as PageOut and modelio's load path attach them,
// or a coordinator's over-the-wire shard gatherer) after validating its
// geometry against the table schema. Attach before the model starts
// serving; it must not race in-flight selections.
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

// CellSource returns the attached cell source (nil when the cells are
// resident).
func (m *Model) CellSource() table.CellSource { return m.cellSrc }

// cells returns what the model reads its rendered cells through — views
// and residual filter checks alike: the attached cell source, else the
// resident table itself. It mirrors binning.Binned.Source.
func (m *Model) cells() table.CellSource {
	if m.cellSrc != nil {
		return m.cellSrc
	}
	return m.T
}

// residentTable returns m.T when no cell source is attached, else a private
// typed copy materialized from the cell source (a local column store or its
// shards; an over-the-wire coordinator source cannot) — the whole-table
// escape hatch for query evaluation and append. The copy is never
// installed on the model; callers own it and its footprint (a select's
// reservation covers it: see copyBytes).
func (m *Model) residentTable() (*table.Table, error) {
	if m.cellSrc == nil {
		return m.T, nil
	}
	mat, ok := m.cellSrc.(interface {
		MaterializeTable(string) (*table.Table, error)
	})
	if !ok {
		return nil, fmt.Errorf("core: table cells are paged and the cell source cannot materialize them (a coordinator's over-the-wire source?)")
	}
	return mat.MaterializeTable(m.T.Name)
}

// ReleaseVectorCache clears the model's caches — the full-table
// tuple-vectors, the memoized candidate samples, the mined rules and the
// overview memo — and settles them to zero bytes with the governor, along
// with a coordinator's shard-sample cache (CacheReleaser). A model that
// shares its generation's overview memo (ShareOverviews) clears it for
// every model that shares it; a serving store evicting such a model calls
// ReleaseSparingOverviews instead, so a reload of the same generation
// keeps the memo. Safe to race in-flight selections: a selection that
// already holds a cached value keeps it, and a build this release
// overtakes is returned to its caller but not cached. Safe to call under
// the serving store's mutex — clearing only ever shrinks the ledger, and
// Shrink never runs eviction callbacks.
func (m *Model) ReleaseVectorCache() {
	m.ReleaseSparingOverviews()
	m.overviews.Load().Clear()
}

// ReleaseSparingOverviews is ReleaseVectorCache but for the overview memo,
// which it leaves as it is: what a store evicting a model of a generation
// it still serves calls, so an evicted tenant's O(rows×dim) caches do not
// outlive its residency while its (k + l)-index overviews do. Selections
// that race it may still fill the memo.
func (m *Model) ReleaseSparingOverviews() {
	m.vecs.Clear()
	m.samples.Clear()
	m.mined.Clear()
	if r, ok := m.shardSampler.(CacheReleaser); ok {
		r.ReleaseCache()
	}
}
