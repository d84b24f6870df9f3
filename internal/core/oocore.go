package core

import (
	"fmt"

	"subtab/internal/binning"
	"subtab/internal/blockfile"
	"subtab/internal/codestore"
)

// Out-of-core selection: a model's bin codes — the per-cell state every
// selection stage reads — can live in an on-disk code store instead of
// memory. ExportCodeStore writes them, AttachCodeStore switches reads to
// the store, and DropInlineCodes releases the in-memory copy; from then on
// the scaled Select path streams the stratified sampler over store blocks
// and gathers only the sampled rows' tuple-vectors, so selection memory is
// bounded by the sample budget (and, with ScaleOptions.SlabBudgetBytes, by
// the spill threshold) rather than the table. Selections are bit-identical
// to the in-memory path. Operations that need the full code matrix at
// memory speed — rule mining, incremental append — transparently
// materialize a private copy (see binning.MaterializedCodes).

// ExportCodeStore writes the model's bin codes to a code store file at
// path (blockRows <= 0 uses codestore.DefaultBlockRows). The store is
// written to a temp file and renamed into place, so a crash cannot leave a
// plausible partial store behind.
func (m *Model) ExportCodeStore(path string, blockRows int) error {
	err := blockfile.WriteAtomic(path, func(tmp string) error {
		w, err := codestore.Create(tmp, m.B.NumBins(), blockRows)
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

// AttachCodeStore attaches an external code source (typically an opened
// codestore.Store for a file ExportCodeStore wrote) after validating its
// geometry and code ranges. The codes must be the model's own — the store
// carries a checksum (see modelio's external references) but this direct
// API trusts the caller's pairing. Attach before the model starts serving;
// it must not race in-flight selections.
func (m *Model) AttachCodeStore(cs binning.CodeSource) error {
	return m.B.AttachStore(cs)
}

// DropInlineCodes releases the in-memory bin codes of a model with an
// attached code store, making the store the only code source. Bin counts
// are computed first (one streamed scan) so the affinity baseline never
// needs the inline codes back. Like AttachCodeStore, not safe to race
// in-flight selections.
func (m *Model) DropInlineCodes() error {
	m.cachedBinCounts()
	return m.B.DropInlineCodes()
}

// UseCodeStoreFile is the one-call form of the export→open→attach→drop
// sequence: it writes the model's codes to path, opens the store, switches
// the model onto it and releases the inline codes. The returned store is
// owned by the model for reading but may be Closed by the caller when the
// model is discarded (unclosed stores release their mapping when garbage
// collected).
func (m *Model) UseCodeStoreFile(path string, blockRows int) (*codestore.Store, error) {
	if err := m.ExportCodeStore(path, blockRows); err != nil {
		return nil, err
	}
	cs, err := codestore.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: reopening exported code store: %w", err)
	}
	if err := m.AttachCodeStore(cs); err != nil {
		cs.Close()
		return nil, err
	}
	if err := m.DropInlineCodes(); err != nil {
		cs.Close()
		return nil, err
	}
	return cs, nil
}

// OutOfCore reports whether the model's codes are store-backed (inline
// codes dropped).
func (m *Model) OutOfCore() bool { return !m.B.HasInlineCodes() }
