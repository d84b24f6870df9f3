package core

import (
	"subtab/internal/binning"
	"subtab/internal/memgov"
)

// SetGovernor settles the model's caches — full-table tuple-vectors,
// memoized candidate samples, mined rules, memoized overviews — with the
// process-wide ledger (internal/memgov) under their own classes, including
// bytes already resident, so one -memory-budget covers every tenant.
// Idempotent: only the first governor takes. Passing nil is a no-op. Must
// not be called while holding a lock g's evictors acquire.
func (m *Model) SetGovernor(g *memgov.Governor) {
	m.vecs.Govern(g)
	m.samples.Govern(g)
	m.mined.Govern(g)
	m.overviews.Load().Govern(g)
}

// CacheBytes reports the bytes the model's governed caches currently hold
// — observability for tests and stats, and what an eviction frees.
func (m *Model) CacheBytes() int64 {
	return m.vecs.Bytes() + m.samples.Bytes() + m.mined.Bytes() + m.overviews.Load().Bytes()
}

// ResidentBytes estimates the model's always-resident footprint: table
// cells and bin codes (when not paged out), embedding matrices,
// the item index, bin counts, and the affinity diagonal. It deliberately
// EXCLUDES the governed caches (see CacheBytes) — those are accounted live
// under their own classes — and anything mmap'd (code/column stores),
// which the OS pages in and out on its own. The estimate reads only
// immutable post-build state, so it is safe to call under any lock
// (the serving store calls it under its mutex to weight the LRU).
func (m *Model) ResidentBytes() int64 {
	var b int64
	if m.T != nil {
		b += m.T.ApproxBytes() // 0 for a paged table's husk
	}
	if m.B != nil {
		if mem, ok := m.B.Source().(binning.MemCodes); ok {
			b += int64(mem.NumRows()*mem.NumCols()) * 2
		}
		for i := range m.B.Cols {
			// Covers the schema itself plus the (possibly not yet lazily
			// built) per-bin counts — sized from NumBins rather than read
			// from m.binCounts, which a concurrent select may be filling.
			b += m.B.Cols[i].ApproxBytes() + int64(m.B.Cols[i].NumBins())*8
		}
	}
	if m.Emb != nil {
		b += m.Emb.ApproxBytes()
	}
	b += int64(len(m.itemRow)) * 4
	b += int64(len(m.colAffinity)) * 8
	return b
}
