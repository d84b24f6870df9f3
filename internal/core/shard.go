package core

import (
	"fmt"
	"path/filepath"
	"sync"

	"subtab/internal/binning"
	"subtab/internal/colstore"
	"subtab/internal/query"
	"subtab/internal/shard"
)

// Sharded selection: a model's code store may be split into N row-range
// shards (package shard). Locally complete sharded models fan the scaled
// sampler out with one goroutine per shard and merge the per-shard
// summaries associatively — bit-identical to the single-store scan.
// Models with remote shards (a coordinator in a multi-server deployment)
// route sampling through an installed ShardSampler, which gathers the
// same summaries from peers over HTTP plus the candidate rows' codes, so
// the rest of the selection runs locally on an overlay without touching
// the missing shards.

// ShardSampler produces the scaled path's candidate sample for a model
// whose shards are partly remote: rows is exactly what the single-store
// stratified reservoir would return at this budget over the rows matching
// preds (each peer evaluates the conjunction shard-locally; empty preds
// scan the whole table), codes covers (at least) those rows so every
// downstream read of the selection resolves locally, and matched is the
// total matching row count across shards. Implementations live in the
// serving layer (scatter over peers, gather and merge); they must be safe
// for concurrent use.
type ShardSampler interface {
	Sample(cols []int, budget int, preds []query.Predicate) (rows []int, codes binning.CodeSource, matched int, err error)
}

// CacheReleaser is the optional extension a ShardSampler implements when it
// holds governed cross-request caches (a coordinator's per-(budget, cols)
// sample results). ReleaseVectorCache forwards to it so evicting a model
// from a serving store also drops — and settles to zero — the coordinator
// bytes keyed to it. Implementations must only shrink governed balances
// (never call back into eviction), because the release may run under the
// serving store's mutex.
type CacheReleaser interface {
	ReleaseCache()
}

// SetShardSampler installs the scatter/gather sampler consulted when the
// model's shards are partly remote. Install before the model starts
// serving; it must not race in-flight selections.
func (m *Model) SetShardSampler(s ShardSampler) { m.shardSampler = s }

// ShardSource returns the model's sharded code source, or nil when the
// model is not shard-backed.
func (m *Model) ShardSource() *shard.Source {
	src, _ := m.B.Source().(*shard.Source)
	return src
}

// SampleSeed returns the seed the scaled sampler ranks rows with — the
// value a coordinator sends to shard peers so remote scans hash
// identically to local ones.
func (m *Model) SampleSeed() int64 { return m.Opt.ClusterSeed ^ scaleSampleSeed }

// SampleShard scans one locally held shard for a scatter/gather sample:
// the worker half of the shard-exec protocol. cols, budget, seed and preds
// come from the coordinator's request; the summary's rows are global ids.
// The worker evaluates preds over the shard's codes (with shard-local
// residual cell checks), scans only the matching rows, and reports how
// many matched. Empty preds scan the whole shard, matched = its row count.
func (m *Model) SampleShard(idx int, cols []int, budget int, seed int64, preds []query.Predicate) (shard.Summary, int, error) {
	src := m.ShardSource()
	if src == nil {
		return shard.Summary{}, 0, fmt.Errorf("core: table is not shard-backed")
	}
	if idx < 0 || idx >= src.NumShards() {
		return shard.Summary{}, 0, fmt.Errorf("core: shard %d out of range [0, %d)", idx, src.NumShards())
	}
	if !src.ShardAvailable(idx) {
		return shard.Summary{}, 0, fmt.Errorf("core: shard %d is not held locally", idx)
	}
	if budget <= 0 {
		return shard.Summary{}, 0, fmt.Errorf("core: sample budget must be positive, got %d", budget)
	}
	for _, c := range cols {
		if c < 0 || c >= m.T.NumCols() {
			return shard.Summary{}, 0, fmt.Errorf("core: column %d out of range [0, %d)", c, m.T.NumCols())
		}
	}
	cs := src.ShardSource(idx)
	start := src.ShardStart(idx)
	if len(preds) == 0 {
		n := 0
		if cs != nil {
			n = cs.NumRows()
		}
		return shard.Scan(m.B, cs, start, cols, budget, seed), n, nil
	}
	f := m.B.CompileFilter(preds)
	residual, err := residualFor(m.caps(), f)
	if err != nil {
		return shard.Summary{}, 0, err
	}
	keep, matched, err := f.MatchMask(cs, start, m.residualCells(residual))
	if err != nil {
		return shard.Summary{}, 0, err
	}
	return shard.ScanFiltered(m.B, cs, start, cols, budget, seed, keep), matched, nil
}

// UseShardedStores exports the model's codes into len(paths) shard files
// (rows split evenly: shard i owns rows [i*n/N, (i+1)*n/N)), opens them
// as one sharded source, switches the model onto it and releases the
// inline codes — the sharded analogue of UseCodeStoreFile. All paths must
// share one directory (the shard map names files relative to it). The
// returned source is owned by the model for reading; Close it when the
// model is discarded.
func (m *Model) UseShardedStores(paths []string, blockRows int) (*shard.Source, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: sharded export needs at least one shard path")
	}
	dir := filepath.Dir(paths[0])
	for _, p := range paths[1:] {
		if filepath.Dir(p) != dir {
			return nil, fmt.Errorf("core: shard files must share one directory, got %q and %q", dir, filepath.Dir(p))
		}
	}
	rows := m.T.NumRows()
	cuts := make([]int, len(paths)+1)
	for i := range cuts {
		cuts[i] = i * rows / len(paths)
	}
	sink, err := shard.NewSplitSink(paths, cuts, m.T.NumCols(), blockRows)
	if err != nil {
		return nil, fmt.Errorf("core: exporting sharded code stores: %w", err)
	}
	if err := m.B.ExportCodes(sink, 0); err != nil {
		sink.Abort()
		return nil, fmt.Errorf("core: exporting sharded code stores: %w", err)
	}
	sm, err := sink.Close()
	if err != nil {
		return nil, fmt.Errorf("core: exporting sharded code stores: %w", err)
	}
	src, err := shard.Open(dir, sm, m.T.NumCols(), false)
	if err != nil {
		return nil, fmt.Errorf("core: reopening sharded code stores: %w", err)
	}
	if err := m.AttachCodeStore(src); err != nil {
		src.Close()
		return nil, err
	}
	if err := m.DropInlineCodes(); err != nil {
		src.Close()
		return nil, err
	}
	return src, nil
}

// shardedReservoir is the local scatter/gather form of the stratified
// reservoir: one goroutine scans each shard, the per-stratum minima and
// phase-2 heaps merge associatively, and the pick order replays exactly —
// byte-identical to the single-store scan (see package shard). covered,
// when non-nil, applies the session coverage bias at the merge's pick step
// (shard.FinishSampleBiased); nil preserves the historical pick order.
func shardedReservoir(b *binning.Binned, src *shard.Source, cols []int, budget int, seed int64, covered func(item int) bool) []int {
	sums := make([]shard.Summary, src.NumShards())
	var wg sync.WaitGroup
	for i := 0; i < src.NumShards(); i++ {
		if src.ShardRows(i) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = shard.Scan(b, src.ShardSource(i), src.ShardStart(i), cols, budget, seed)
		}(i)
	}
	wg.Wait()
	strata, cands := shard.MergeSummaries(sums, b.NumItems())
	return shard.FinishSampleBiased(strata, cands, budget, covered)
}

// UseShardedColumnStores exports the model's raw columns into len(paths)
// column-store shard files, cut at exactly the same row ranges as
// UseShardedStores (shard i owns rows [i*n/N, (i+1)*n/N)), opens them as
// one sharded cell source, switches view assembly onto it and releases the
// inline columns — the sharded analogue of UseColumnStoreFile. All paths
// must share one directory. The returned source is owned by the model for
// reading; Close it when the model is discarded.
func (m *Model) UseShardedColumnStores(paths []string, blockRows int) (*shard.Cells, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: sharded column export needs at least one shard path")
	}
	if !m.T.CellsResident() {
		return nil, fmt.Errorf("core: exporting sharded column stores: table cells are already paged")
	}
	dir := filepath.Dir(paths[0])
	for _, p := range paths[1:] {
		if filepath.Dir(p) != dir {
			return nil, fmt.Errorf("core: column shard files must share one directory, got %q and %q", dir, filepath.Dir(p))
		}
	}
	rows := m.T.NumRows()
	descs := make([]shard.Desc, len(paths))
	for i, p := range paths {
		start, end := i*rows/len(paths), (i+1)*rows/len(paths)
		if err := colstore.WriteTableRows(p, m.T, start, end, blockRows); err != nil {
			return nil, fmt.Errorf("core: exporting column shard %d: %w", i, err)
		}
		st, err := colstore.Open(p)
		if err != nil {
			return nil, fmt.Errorf("core: reopening column shard %d: %w", i, err)
		}
		descs[i] = shard.Desc{File: filepath.Base(p), Rows: st.NumRows(), BlockRows: st.BlockRows(), Checksum: st.Checksum()}
		st.Close()
	}
	names := make([]string, m.T.NumCols())
	for c := range names {
		names[c] = m.T.ColumnAt(c).Name
	}
	cells, err := shard.OpenCells(dir, descs, names, false)
	if err != nil {
		return nil, fmt.Errorf("core: reopening sharded column stores: %w", err)
	}
	if err := m.AttachColumnStore(cells); err != nil {
		cells.Close()
		return nil, err
	}
	if err := m.DropInlineCells(); err != nil {
		cells.Close()
		return nil, err
	}
	return cells, nil
}

// ShardCells returns the model's sharded cell source, or nil when the
// model's raw columns are not shard-backed.
func (m *Model) ShardCells() *shard.Cells {
	sc, _ := m.cellSrc.(*shard.Cells)
	return sc
}

// GatherShardCells reads rendered cells from one locally held column-store
// shard: the worker half of the shard-exec cells protocol. rows are
// shard-local; cols are source column indices.
func (m *Model) GatherShardCells(idx int, cols []int, rows []int) ([][]string, error) {
	sc := m.ShardCells()
	if sc == nil {
		return nil, fmt.Errorf("core: table's columns are not shard-backed")
	}
	if idx < 0 || idx >= sc.NumShards() {
		return nil, fmt.Errorf("core: shard %d out of range [0, %d)", idx, sc.NumShards())
	}
	for _, c := range cols {
		if c < 0 || c >= m.T.NumCols() {
			return nil, fmt.Errorf("core: column %d out of range [0, %d)", c, m.T.NumCols())
		}
	}
	return sc.ShardGather(idx, cols, rows)
}
