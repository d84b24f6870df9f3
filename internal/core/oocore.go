package core

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"subtab/internal/binning"
	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/shard"
	"subtab/internal/table"
)

// Out-of-core tables: a model's bin codes — the per-cell state every
// selection stage reads — and its displayed cells — the state only the
// final k×l view assembly reads — can live in block files instead of
// memory. PageOut is the one way out: it writes the code store and the
// column store (one file pair, or N row-range shards), opens them,
// switches the model onto them and releases the in-memory copies. From
// then on the scaled Select path streams the stratified sampler over store
// blocks and gathers only the sampled rows' tuple-vectors, and a view
// renders by fetching only the selected rows' cell blocks, so selection
// memory is bounded by the sample budget rather than the table. Selections and rendered views are bit-identical to the in-memory
// path. Operations that need the whole table at memory speed — rule
// mining, query evaluation, incremental append — transparently materialize
// a private copy (see binning.MaterializedCodes and residentTable).

// ExportCodeStore writes the model's bin codes to a code store file at
// path (blockRows <= 0 uses codestore.DefaultBlockRows). The store is
// written to a temp file and renamed into place, so a crash cannot leave a
// plausible partial store behind.
func (m *Model) ExportCodeStore(path string, blockRows int) error {
	err := blockfile.WriteAtomic(path, func(tmp string) error {
		w, err := codestore.Create(tmp, m.B.NumBins(), m.T.NumRows(), blockRows)
		if err != nil {
			return err
		}
		if err := m.B.ExportCodes(w, 0); err != nil {
			w.Abort()
			return err
		}
		return w.Close()
	})
	if err != nil {
		return fmt.Errorf("core: exporting code store: %w", err)
	}
	return nil
}

// PageOut moves the model's bin codes and displayed cells out of memory,
// together:
// codes[i] and cells[i] receive rows [i*n/N, (i+1)*n/N) of the table's n
// rows, N = len(codes) = len(cells). Unsharded, N must be 1 and the two
// files are a plain code store and column store; sharded, the files are N
// row-range shards (package shard) — also for N = 1 — described by the
// shard map m.ShardSource().Map(). Every path must sit in one directory
// (modelio and the shard map name the files relative to it). blockRows <= 0
// uses the stores' default. Each file is written to a temp name and
// renamed into place. Bin counts are computed first, so no later stage
// needs the resident codes back for counting. PageOut must not race
// in-flight selections: page a model out before it starts serving.
func (m *Model) PageOut(codes, cells []string, sharded bool, blockRows int) error {
	n := len(codes)
	switch {
	case n == 0 || len(cells) != n:
		return fmt.Errorf("core: paging out needs one cell path per code path, got %d and %d", n, len(cells))
	case !sharded && n != 1:
		return fmt.Errorf("core: an unsharded page-out writes one file pair, got %d", n)
	case m.OutOfCore():
		return fmt.Errorf("core: paging out: the model is already paged")
	}
	dir := filepath.Dir(codes[0])
	for _, p := range slices.Concat(codes, cells) {
		if filepath.Dir(p) != dir {
			return fmt.Errorf("core: paged stores must share one directory, got %q and %q", dir, filepath.Dir(p))
		}
	}
	m.cachedBinCounts()
	rows := m.T.NumRows()
	cuts := make([]int, n+1)
	for i := range cuts {
		cuts[i] = i * rows / n
	}
	sink, err := shard.NewSplitSink(codes, cuts, m.B.NumBins(), blockRows)
	if err != nil {
		return fmt.Errorf("core: exporting code store: %w", err)
	}
	if err := m.B.ExportCodes(sink, 0); err != nil {
		sink.Abort()
		return fmt.Errorf("core: exporting code store: %w", err)
	}
	codeMap, err := sink.Close()
	if err != nil {
		return fmt.Errorf("core: exporting code store: %w", err)
	}
	cellDescs := make([]shard.Desc, n)
	for i, p := range cells {
		if err := colstore.WriteTableRows(p, m.T, cuts[i], cuts[i+1], blockRows); err != nil {
			return fmt.Errorf("core: exporting column store: %w", err)
		}
		st, err := colstore.Open(p)
		if err != nil {
			return fmt.Errorf("core: reopening column store: %w", err)
		}
		cellDescs[i] = shard.Desc{File: filepath.Base(p), Rows: st.NumRows(), BlockRows: st.BlockRows(), Checksum: st.Checksum()}
		st.Close()
	}
	// If the codes fail to attach, the cells detach again: still resident.
	codeSrc, cellSrc, err := openPaged(dir, codeMap, cellDescs, m.T.ColumnNames(), sharded)
	if err == nil {
		err = m.AttachColumnStore(cellSrc)
	}
	if err == nil {
		if err = m.B.AttachStore(codeSrc); err != nil {
			m.cellSrc = nil
		}
	}
	if err != nil {
		if codeSrc != nil {
			codeSrc.(io.Closer).Close()
			cellSrc.(io.Closer).Close()
		}
		return err
	}
	m.T.DropCells()
	return nil
}

// openPaged opens the stores PageOut wrote: one sharded source over each
// set of descriptors when sharded, else the one code store and column
// store. On error nothing is left open.
func openPaged(dir string, codes *shard.Map, cells []shard.Desc, names []string, sharded bool) (binning.CodeSource, table.CellSource, error) {
	if sharded {
		src, err := shard.Open(dir, codes, len(names), false)
		if err != nil {
			return nil, nil, fmt.Errorf("core: reopening code shards: %w", err)
		}
		cs, err := shard.OpenCells(dir, cells, names, false)
		if err != nil {
			src.Close()
			return nil, nil, fmt.Errorf("core: reopening column shards: %w", err)
		}
		return src, cs, nil
	}
	src, err := codestore.Open(filepath.Join(dir, codes.Shards[0].File))
	if err != nil {
		return nil, nil, fmt.Errorf("core: reopening code store: %w", err)
	}
	cs, err := colstore.Open(filepath.Join(dir, cells[0].File))
	if err != nil {
		src.Close()
		return nil, nil, fmt.Errorf("core: reopening column store: %w", err)
	}
	return src, cs, nil
}

// OutOfCore reports whether the model is paged: its codes, and with them
// its cells, are served from stores (PageOut, or any model loaded from its
// file) rather than memory.
func (m *Model) OutOfCore() bool { return m.B.Paged() }
