package core

import (
	"fmt"

	"subtab/internal/binning"
	"subtab/internal/corpus"
	"subtab/internal/table"
)

// DefaultDriftThreshold is the per-column distribution shift (total-
// variation distance between the table's bin distribution before and after
// the append — the chunk's divergence weighted by its share of the result)
// above which Append abandons the incremental path and re-preprocesses the
// concatenated table. 0.1 means "a tenth of the table's probability mass
// moved between bins in one append": routine chunks land orders of
// magnitude below it — a tiny chunk cannot trip it by sampling noise,
// because its weight is tiny — while a regime change arriving as a bulk
// load (a disjoint chunk ≥ ~11% of the table) trips it immediately.
const DefaultDriftThreshold = 0.1

// DefaultRebinGrowth caps how much of the table may bypass full binning:
// once incrementally appended rows exceed this fraction of the rows that
// were present at the last full (re)bin, Append re-bins regardless of
// per-chunk drift. Slow drift is invisible to per-append checks (each
// chunk is judged against a distribution that already absorbed its
// predecessors), so the growth cap bounds staleness to one table-doubling
// while keeping the amortized append cost O(1) per row.
const DefaultRebinGrowth = 1.0

// DefaultFineTuneEpochs is the number of fine-tuning passes over the delta
// corpus when an append introduces embedding tokens the model has never
// trained. A couple of epochs against the frozen established vectors is
// enough to place a handful of new items; the full Epochs schedule is for
// training whole vocabularies from scratch.
const DefaultFineTuneEpochs = 2

// AppendOptions configures Model.Append.
type AppendOptions struct {
	// DriftThreshold is the maximum tolerated per-column distribution shift
	// — total-variation distance between the table's bin distribution
	// before and after the append — before a full re-preprocess is forced
	// (<= 0 uses DefaultDriftThreshold; >= 1 disables drift-triggered
	// rebinning — structural rebins and the growth cap still apply).
	DriftThreshold float64
	// RebinGrowth is the fraction of the last-rebinned row count that may
	// be appended incrementally before a full re-bin is forced (<= 0 uses
	// DefaultRebinGrowth; set very large to effectively disable).
	RebinGrowth float64
	// FineTuneEpochs is the number of warm-start training passes over the
	// delta corpus when new embedding tokens appear (<= 0 uses
	// DefaultFineTuneEpochs).
	FineTuneEpochs int
	// ForceRebin skips the incremental path and re-preprocesses the
	// concatenated table unconditionally — the escape hatch for callers that
	// want the exact model a cold Preprocess would build.
	ForceRebin bool
}

func (o AppendOptions) withDefaults() AppendOptions {
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = DefaultDriftThreshold
	}
	if o.RebinGrowth <= 0 {
		o.RebinGrowth = DefaultRebinGrowth
	}
	if o.FineTuneEpochs <= 0 {
		o.FineTuneEpochs = DefaultFineTuneEpochs
	}
	return o
}

// AppendStats describes what an Append did.
type AppendStats struct {
	// AppendedRows is the number of rows ingested.
	AppendedRows int `json:"appended_rows"`
	// Rebinned reports that the append fell back to a full Preprocess of
	// the concatenated table; RebinReason says why ("forced", a structural
	// incompatibility, or drift above the threshold).
	Rebinned    bool   `json:"rebinned"`
	RebinReason string `json:"rebin_reason,omitempty"`
	// MaxDrift / MaxDriftCol locate the column whose overall bin
	// distribution moved the most (the thresholded quantity; also filled on
	// the incremental path, where it was below the threshold).
	// MaxChunkDrift is the worst column's unscaled chunk-vs-table
	// divergence — diagnostic for "unusual chunk, too small to matter yet".
	MaxDrift      float64 `json:"max_drift"`
	MaxDriftCol   string  `json:"max_drift_col,omitempty"`
	MaxChunkDrift float64 `json:"max_chunk_drift"`
	// AppendedSinceRebin is the model's cumulative incremental-ingestion
	// lineage after this append (0 right after a rebin); the growth cap
	// re-bins when it would exceed RebinGrowth × the last-rebinned size.
	AppendedSinceRebin int `json:"appended_since_rebin"`
	// NewCategories counts dictionary entries unseen at bin time, folded
	// into the last non-missing bin until a re-bin runs.
	NewCategories int `json:"new_categories"`
	// NewTokens counts embedding vocabulary entries the fine-tune trained —
	// bins that existed but never appeared in the training corpus until now.
	NewTokens int `json:"new_tokens"`
}

// Append ingests rows (schema-compatible with m.T, see table.AppendRows)
// and returns a model over the concatenated table. The receiver is never
// mutated — selections running against m are unaffected — so a serving
// layer can swap the returned model in atomically (internal/serve does,
// bumping the store generation).
//
// The incremental path reuses everything expensive from m: bin boundaries
// stay fixed (appended cells are coded against the existing cuts and
// dictionaries), the embedding matrices are shared and at most fine-tuned
// (new tokens trained against the frozen old vectors, old vectors
// byte-identical), bin counts and the column-affinity matrix are updated
// from the delta alone. The returned model starts with empty caches: its
// full-table tuple-vectors fill lazily on its first selection that needs
// them. Only row-dependent derived state (rules mined over the old rows,
// cached selections) must be invalidated by the caller.
//
// Append falls back to a full Preprocess of the concatenated table — the
// exact model a cold build would produce — when the appended rows are
// structurally incompatible with the existing binning or drift past
// opt.DriftThreshold (see AppendStats). Appending zero rows returns m
// unchanged.
func (m *Model) Append(rows *table.Table, opt AppendOptions) (*Model, AppendStats, error) {
	opt = opt.withDefaults()
	var stats AppendStats
	if rows.NumRows() == 0 {
		if rows.NumCols() != m.T.NumCols() {
			return nil, stats, fmt.Errorf("core: append: %d columns appended to a %d-column table", rows.NumCols(), m.T.NumCols())
		}
		for _, c := range rows.Columns() {
			if m.T.Column(c.Name) == nil {
				return nil, stats, fmt.Errorf("core: append: table has no column %q", c.Name)
			}
		}
		return m, stats, nil
	}
	stats.AppendedRows = rows.NumRows()
	// A paged table is a schema husk; appending needs the old cells back, so
	// materialize a private resident copy first (the serving layer re-pages
	// the result). The binning below also needs newT's appended cells, which
	// the concatenated copy holds either way.
	baseT, err := m.residentTable()
	if err != nil {
		return nil, stats, fmt.Errorf("core: append: %w", err)
	}
	newT, err := baseT.AppendRows(rows)
	if err != nil {
		return nil, stats, fmt.Errorf("core: append: %w", err)
	}
	if opt.ForceRebin {
		return m.rebin(newT, &stats, "forced")
	}

	oldN := m.T.NumRows()
	addN := newT.NumRows() - oldN
	if base := oldN - m.appendedSinceRebin; float64(m.appendedSinceRebin+addN) > opt.RebinGrowth*float64(base) {
		return m.rebin(newT, &stats, fmt.Sprintf("%d rows appended since the last re-bin exceed %.2g× the %d rows binned then",
			m.appendedSinceRebin+addN, opt.RebinGrowth, base))
	}

	oldCounts := m.cachedBinCounts()
	b, bstats, err := binning.AppendRows(m.B, newT, oldN, oldCounts)
	stats.MaxDrift, stats.MaxDriftCol = bstats.MaxDrift, bstats.MaxDriftCol
	for _, d := range bstats.ChunkDrift {
		if d > stats.MaxChunkDrift {
			stats.MaxChunkDrift = d
		}
	}
	stats.NewCategories = bstats.NewCategories
	if err != nil {
		return nil, stats, fmt.Errorf("core: append: %w", err)
	}
	if b == nil {
		return m.rebin(newT, &stats, bstats.RebinReason)
	}
	if bstats.MaxDrift > opt.DriftThreshold {
		return m.rebin(newT, &stats, fmt.Sprintf("column %q shifted the table distribution by %.3f > threshold %.3f",
			bstats.MaxDriftCol, bstats.MaxDrift, opt.DriftThreshold))
	}

	// Fine-tune the embedding on the delta corpus. Usually a no-op (every
	// bin of the appended rows already has a trained vector); when new
	// tokens appear they are trained against the frozen old vectors.
	newIdx := make([]int, newT.NumRows()-oldN)
	for i := range newIdx {
		newIdx[i] = oldN + i
	}
	ftOpt := m.Opt.Embedding
	ftOpt.Epochs = opt.FineTuneEpochs
	emb := m.Emb.FineTune(corpus.BuildRows(b, m.Opt.Corpus, newIdx), ftOpt)
	stats.NewTokens = emb.VocabSize() - m.Emb.VocabSize()

	nm := newModel(newT, b, emb, m.Opt)
	nm.appendedSinceRebin = m.appendedSinceRebin + addN
	stats.AppendedSinceRebin = nm.appendedSinceRebin

	// Bin counts and affinities: cumulative counts grow by the delta counts
	// binning already tallied; the affinity fill re-weights the (unchanged
	// for old tokens, newly placed for new ones) association scores by the
	// updated frequencies without touching the table's rows.
	counts := make([][]int64, len(oldCounts))
	for c := range counts {
		cc := make([]int64, len(oldCounts[c]))
		copy(cc, oldCounts[c])
		for bin, add := range bstats.AppendedCounts[c] {
			cc[bin] += add
		}
		counts[c] = cc
	}
	nm.SeedBinCounts(counts)
	nm.colAffinity = nm.affinityFromCounts(counts, newT.NumRows())
	return nm, stats, nil
}

// rebin is the full-reprocess fallback: the returned model is exactly what
// a cold Preprocess of the concatenated table builds.
func (m *Model) rebin(newT *table.Table, stats *AppendStats, reason string) (*Model, AppendStats, error) {
	stats.Rebinned, stats.RebinReason = true, reason
	nm, err := Preprocess(newT, m.Opt)
	if err != nil {
		return nil, *stats, fmt.Errorf("core: append: re-preprocessing after %s: %w", reason, err)
	}
	return nm, *stats, nil
}
