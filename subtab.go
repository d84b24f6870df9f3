// Package subtab is a Go implementation of SubTab — "Selecting Sub-tables
// for Data Exploration" (Razmadze, Amsterdamer, Somech, Davidson, Milo;
// ICDE 2023, arXiv:2203.02754).
//
// Given a large table, SubTab selects a small k×l sub-table — a subset of
// rows projected on a subset of columns — that is informative: it captures
// the prominent association-rule patterns of the full table (cell coverage)
// while showing diverse values (diversity). The algorithm never mines rules
// at selection time; instead a one-off pre-processing phase bins every
// column and embeds the binned cells with Word2Vec, and each display
// clusters the resulting row/column vectors and picks centroid
// representatives. Query results reuse the pre-computed embedding, which is
// what makes per-query sub-table displays interactive.
//
// Quickstart:
//
//	t, err := subtab.ReadCSVFile("flights.csv")
//	...
//	model, err := subtab.Preprocess(t, subtab.DefaultOptions())
//	...
//	st, err := model.Select(10, 10, []string{"CANCELLED"})
//	...
//	fmt.Println(st.View)
//
// To display a query result instead of the whole table:
//
//	q := &subtab.Query{Where: []subtab.Predicate{{Col: "CANCELLED", Op: subtab.Eq, Num: 1}}}
//	st, err := model.SelectQuery(q, 10, 10, nil)
//
// Pre-processing is the expensive phase, so models persist: SaveModel and
// LoadModel round-trip a pre-processed model through a versioned binary
// format (everything Select needs, embeddings and the column-affinity matrix
// included), and a loaded model produces identical selections without
// re-running Preprocess:
//
//	_ = subtab.SaveModelFile("flights.subtab", model)
//	model, err := subtab.LoadModelFile("flights.subtab")  // milliseconds, not minutes
//
// For serving many users over the same tables, cmd/subtab-server exposes
// upload/select/query/rules as an HTTP/JSON API on top of internal/serve,
// whose model store is LRU-bounded in memory, deduplicates concurrent
// pre-processing runs, and spills to disk using this same format.
//
// Million-row tables stay interactive through the large-table selection
// mode (Options.Scale, or per call via SelectExplore(ExploreSpec{Scale: …})): above a row
// threshold, Select clusters a deterministic stratified sample of the
// candidate rows with seeded mini-batch k-means instead of exact k-means
// over every tuple-vector. Below the threshold the pipeline is bit-for-bit
// the exact path.
//
// Tables larger than memory serve out-of-core: Model.UseCodeStoreFile
// moves the bin codes into a chunked, checksummed, mmap-backed code store
// and releases the in-memory copy, the scaled Select streams its sampler
// over store blocks, and ScaleOptions.SlabBudgetBytes spills the sampled
// tuple-vector slab to a temp file past the budget — all byte-identical to
// the in-memory path. SaveModel on a store-backed model writes a
// checksummed reference to the store (format v5) instead of inlining the
// codes.
//
// The packages behind this facade also implement the paper's evaluation
// stack: the informativeness metrics (Defs. 3.6–3.7), an Apriori rule miner,
// the greedy/semi-greedy Algorithm 1, and the RAN/NC/MAB/EmbDI baselines of
// §6 — see MineRules, NewEvaluator and the *Baseline functions.
package subtab

import (
	"io"

	"subtab/internal/baselines"
	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/metrics"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/rules"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// Table is a relational table with typed, column-major storage and
// first-class missing values.
type Table = table.Table

// Column is a single typed table column.
type Column = table.Column

// Value is a dynamically typed cell value.
type Value = table.Value

// Kind is a column type (Numeric or Categorical).
type Kind = table.Kind

// Column kinds.
const (
	Numeric     = table.Numeric
	Categorical = table.Categorical
)

// NewTable returns an empty table with the given name.
func NewTable(name string) *Table { return table.New(name) }

// NewNumericColumn builds a numeric column (math.NaN() marks missing cells).
func NewNumericColumn(name string, vals []float64) *Column {
	return table.NewNumeric(name, vals)
}

// NewCategoricalColumn builds a categorical column (empty string marks
// missing cells).
func NewCategoricalColumn(name string, vals []string) *Column {
	return table.NewCategorical(name, vals)
}

// ReadCSV parses CSV with a header row, inferring numeric vs categorical
// columns.
func ReadCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// ReadCSVFile reads a CSV file into a table.
func ReadCSVFile(path string) (*Table, error) { return table.ReadCSVFile(path) }

// Query is an exploratory selection-projection-group-by-sort query.
type Query = query.Query

// Predicate is a single column comparison in a query's WHERE conjunction.
type Predicate = query.Predicate

// Aggregate pairs an aggregate function with a column for group-by queries.
type Aggregate = query.Aggregate

// Comparison operators for predicates.
const (
	Eq         = query.Eq
	Neq        = query.Neq
	Lt         = query.Lt
	Leq        = query.Leq
	Gt         = query.Gt
	Geq        = query.Geq
	IsMissing  = query.IsMissing
	NotMissing = query.NotMissing
)

// Aggregate functions for group-by queries.
const (
	Count = query.Count
	Sum   = query.Sum
	Mean  = query.Mean
	Min   = query.Min
	Max   = query.Max
)

// Options configures the SubTab pipeline (binning, corpus, embedding,
// column strategy, large-table selection mode).
type Options = core.Options

// ScaleOptions configures the large-table selection mode: above
// ScaleOptions.Threshold candidate rows, Select clusters a deterministic
// stratified sample with seeded mini-batch k-means instead of running exact
// k-means over every tuple-vector, keeping million-row tables interactive.
// Below the threshold (or with the zero value) selections are bit-for-bit
// the exact path. Set it model-wide via Options.Scale or per call via
// Model.SelectExplore(ExploreSpec{Scale: …}).
type ScaleOptions = core.ScaleOptions

// ExploreSpec is a selection request — the rows (whole table, predicate
// conjunction, drill-down scope or query), the k×l shape and targets, a
// per-call ScaleOptions override and an exploration session's coverage and
// column weights. Model.SelectExplore is the one selection entry point;
// Select and SelectQuery build the spec of Alg. 2's two signatures.
type ExploreSpec = core.ExploreSpec

// BinningOptions configures how columns are split into bins.
type BinningOptions = binning.Options

// CorpusOptions configures the tabular-sentence corpus.
type CorpusOptions = corpus.Options

// EmbeddingOptions configures Word2Vec training.
type EmbeddingOptions = word2vec.Options

// Binning strategies for numeric columns.
const (
	KDEValleys = binning.KDEValleys
	Quantile   = binning.Quantile
	EqualWidth = binning.EqualWidth
)

// Column-selection strategies.
const (
	PatternGroups = core.PatternGroups
	Centroids     = core.Centroids
)

// DefaultOptions returns the paper's default pipeline settings (5 KDE bins,
// 100K-sentence corpus cap, pattern-group column selection).
func DefaultOptions() Options { return core.Default() }

// Model is a pre-processed table: binned, embedded, ready for interactive
// sub-table selection.
type Model = core.Model

// SubTable is a selected k×l sub-table with its source rows, columns and
// rendered view.
type SubTable = core.SubTable

// Preprocess runs SubTab's pre-processing phase (normalize, bin, embed) on
// a table. Run once per table; every subsequent Select/SelectQuery reuses
// the result.
func Preprocess(t *Table, opt Options) (*Model, error) { return core.Preprocess(t, opt) }

// SaveModel writes a pre-processed model to w in SubTab's versioned binary
// format. Everything Select/SelectQuery needs is serialized — table, binned
// representation, embedding vectors and the precomputed column-affinity
// matrix — so LoadModel restores the model without re-running Preprocess.
func SaveModel(w io.Writer, m *Model) error { return modelio.Save(w, m) }

// LoadModel reads a model written by SaveModel. The loaded model produces
// selections identical to the model that was saved (same seeds). Corrupt or
// truncated input and unknown format versions return errors.
func LoadModel(r io.Reader) (*Model, error) { return modelio.Load(r) }

// SaveModelFile writes a pre-processed model to path.
func SaveModelFile(path string, m *Model) error { return modelio.SaveFile(path, m) }

// LoadModelFile reads a model written by SaveModelFile.
func LoadModelFile(path string) (*Model, error) { return modelio.LoadFile(path) }

// AppendOptions configures incremental row ingestion (drift threshold,
// fine-tune epochs, forced re-bin).
type AppendOptions = core.AppendOptions

// AppendStats describes what an AppendRows call did: rows ingested, whether
// the table drifted into a full re-preprocess, new categories/tokens, and
// how much cached state was recomputed.
type AppendStats = core.AppendStats

// AppendRows ingests additional rows (schema-compatible with the model's
// table) and returns a model over the concatenated table — the streaming
// counterpart of Preprocess. The input model is never mutated, so selections
// against it can proceed while the append runs. Bin boundaries, embedding
// vectors, bin counts, the column-affinity matrix and the full-table vector
// cache are reused incrementally; when the appended rows drift too far from
// the binned distribution (or are structurally incompatible with the
// binning), the call transparently falls back to a full Preprocess of the
// concatenated table and says so in AppendStats. The zero AppendOptions
// uses the documented defaults.
func AppendRows(m *Model, rows *Table, opt AppendOptions) (*Model, AppendStats, error) {
	return m.Append(rows, opt)
}

// Rule is a mined association rule over binned items.
type Rule = rules.Rule

// MiningOptions configures the Apriori rule miner.
type MiningOptions = rules.Options

// MineRules mines association rules from a pre-processed model's binned
// table (used for evaluation and for highlighting patterns in displays).
func MineRules(m *Model, opt MiningOptions) ([]Rule, error) {
	return rules.Mine(m.B, opt)
}

// Highlight returns a cell predicate for Table.Render marking, per
// sub-table row, the cells of one association rule that the row exemplifies
// (at most one rule per row, as in the paper's UI), plus the chosen rule
// index per row (-1 when none).
func Highlight(m *Model, rs []Rule, st *SubTable) (func(row, col int) bool, []int) {
	return core.Highlight(m.B, rs, st)
}

// Evaluator scores sub-tables with the paper's informativeness metrics.
type Evaluator = metrics.Evaluator

// MetricSubTable identifies a candidate sub-table for the evaluator.
type MetricSubTable = metrics.SubTable

// NewEvaluator builds an evaluator over a model's binned table and a mined
// rule set; alpha balances cell coverage against diversity (paper: 0.5).
func NewEvaluator(m *Model, rs []Rule, alpha float64) *Evaluator {
	return metrics.NewEvaluator(m.B, rs, alpha)
}

// BaselineResult is a baseline algorithm's selected sub-table with score
// and cost.
type BaselineResult = baselines.Result

// RandomBaselineOptions configures the RAN baseline.
type RandomBaselineOptions = baselines.RandomOptions

// RandomBaseline repeatedly draws random sub-tables and keeps the best
// (the paper's RAN baseline).
func RandomBaseline(e *Evaluator, opt RandomBaselineOptions) (*BaselineResult, error) {
	return baselines.Random(e, opt)
}

// NCBaselineOptions configures the naive-clustering baseline.
type NCBaselineOptions = baselines.NCOptions

// NaiveClusteringBaseline clusters one-hot encoded rows and raw column
// sequences directly (the paper's NC baseline).
func NaiveClusteringBaseline(e *Evaluator, opt NCBaselineOptions) (*BaselineResult, error) {
	return baselines.NaiveClustering(e, opt)
}

// GreedyBaselineOptions configures Algorithm 1 and its semi-greedy variant.
type GreedyBaselineOptions = baselines.GreedyOptions

// GreedyBaseline runs the paper's Algorithm 1: exhaustive (or randomized)
// column enumeration with (1-1/e)-approximate greedy row selection.
func GreedyBaseline(e *Evaluator, opt GreedyBaselineOptions) (*BaselineResult, error) {
	return baselines.Greedy(e, opt)
}

// MABBaselineOptions configures the multi-armed-bandit baseline.
type MABBaselineOptions = baselines.MABOptions

// MABBaseline runs the UCB multi-armed-bandit baseline of §6.1.
func MABBaseline(e *Evaluator, opt MABBaselineOptions) (*BaselineResult, error) {
	return baselines.MAB(e, opt)
}

// EmbDIBaselineOptions configures the graph-walk embedding baseline.
type EmbDIBaselineOptions = baselines.EmbDIOptions

// EmbDIBaseline runs the EmbDI-style graph-walk embedding baseline.
func EmbDIBaseline(e *Evaluator, opt EmbDIBaselineOptions) (*BaselineResult, error) {
	return baselines.EmbDI(e, opt)
}

// FairnessOptions constrains selections so every group of a protected
// column is represented (paper §7 future work); see Model.SelectFair.
type FairnessOptions = core.FairnessOptions

// JoinResult is an equi-join output with row provenance.
type JoinResult = table.JoinResult

// EquiJoin inner-joins two tables on equal key columns (hash join); the
// result can be Preprocessed like any table, enabling sub-tables over joins
// (paper §7 future work).
func EquiJoin(left, right *Table, leftCol, rightCol, rightPrefix string) (*JoinResult, error) {
	return table.EquiJoin(left, right, leftCol, rightCol, rightPrefix)
}

// Dataset is a generated evaluation dataset with its planted ground truth.
type Dataset = datagen.Dataset

// GenerateDataset builds one of the paper's evaluation datasets by
// abbreviation (FL, CY, SP, CC, USF, BL); n <= 0 uses the default scaled
// row count. The generators are schema-faithful synthetic stand-ins with
// planted association rules (see DESIGN.md §4).
func GenerateDataset(name string, n int, seed int64) (*Dataset, error) {
	return datagen.ByName(name, n, seed)
}

// DatasetNames lists the generatable evaluation datasets.
func DatasetNames() []string { return datagen.Names() }
