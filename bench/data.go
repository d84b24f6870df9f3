package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"subtab/internal/datagen"
	"subtab/internal/query"
	"subtab/internal/table"
)

const (
	numVariants = 8
	viewK       = 10
	viewL       = 10
)

// predicate is one conjunct of a select body, in the wire shape of /v1.
type predicate struct {
	Col string  `json:"col"`
	Op  string  `json:"op"`
	Num float64 `json:"num,omitempty"`
	Str string  `json:"str,omitempty"`
}

// query is the predicate as the served program parses it.
func (p predicate) query() query.Predicate {
	op := map[string]query.Op{"=": query.Eq, "<": query.Lt, "missing": query.IsMissing}[p.Op]
	return query.Predicate{Col: p.Col, Op: op, Num: p.Num, Str: p.Str}
}

// variant is one fixed script: which predicates its two filtered selects
// carry, which row of the first view anchors its drill-down, and whether
// its selects pin the dataset's target column.
type variant struct {
	Exact     predicate // decidable from bin codes alone
	Residual  predicate // numeric bound strictly between two data values
	AnchorRow int       // the cell of the first view the drill-down expands:
	AnchorCol string    // index into its source_rows, column name (set by settle)
	Targets   []string

	// Where the predicates were drawn from. The set-up may move either to
	// the next candidate once it sees the served binning (see settle).
	exactIdx int     // index into tableData.exact
	quantile float64 // quantile of Residual's bound

	// How many rows of the table each predicate selects (set by settle); a
	// filtered display of fewer than k rows is right when fewer match.
	exactRows, residualRows int
}

// tableData is what the generator keeps of one generated table after its
// CSV is on disk: the predicate columns (exactly as the server will parse
// them) for output checks, and the table's script variants.
type tableData struct {
	Name     string
	Dataset  string // generator name: scripts on one dataset and variant are one kind
	Rows     int
	Cols     int
	CSVPath  string
	CSVBytes int64
	Cat      map[string][]string
	Num      map[string][]float64
	Variants [numVariants]variant

	exact []exactCandidate // every (column, value) an exact predicate may use
}

// mix derives an independent generator seed from the benchmark seed and a
// stream index (splitmix64 finalizer), so neighbouring seeds and streams
// share no inputs.
func mix(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// generate builds one table from internal/datagen, writes its CSV to
// csvPath and returns the retained predicate columns and variants. The
// Dataset itself is dropped, so the process's memory high-water mark is the
// server's, not the generator's.
func generate(csvPath, name, dataset string, rows int, seed int64) (*tableData, error) {
	ds, err := datagen.ByName(dataset, rows, seed)
	if err != nil {
		return nil, err
	}
	td := &tableData{
		Name:    name,
		Dataset: dataset,
		Rows:    ds.T.NumRows(),
		Cols:    ds.T.NumCols(),
		CSVPath: csvPath,
		Cat:     map[string][]string{},
		Num:     map[string][]float64{},
	}
	if err := writeCSV(ds.T, td.CSVPath); err != nil {
		return nil, err
	}
	st, err := os.Stat(td.CSVPath)
	if err != nil {
		return nil, err
	}
	td.CSVBytes = st.Size()
	if err := td.chooseVariants(ds); err != nil {
		return nil, err
	}
	return td, nil
}

func writeCSV(t *table.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := t.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxBins is the pipeline's default bin budget per column
// (core.Default): a categorical column with more distinct values than this
// folds its tail into one "other" bin, and equality on such a column can
// no longer be decided from bin codes alone.
const maxBins = 5

// Share bounds of what an exact predicate may select, and the quantile
// ladder of the residual bounds (in an order that does not rise with the
// variant index). Which candidate a variant takes is a fixed rule, not a
// draw: variant v takes the exact predicate at the v-th of eight evenly
// spaced ranks of the candidates ordered by share, the v-th of eight
// evenly spaced numeric columns, and the v-th rung of the ladder. The seed
// shapes the data — and through it the bounds and the displays — but not
// the mixture of selectivities, which the filtered selects' cost follows;
// otherwise two seeds would measure two different workloads.
const (
	minExactShare = 0.01
	maxExactShare = 0.50
)

var residualQuantiles = [numVariants]float64{0.30, 0.10, 0.40, 0.20, 0.45, 0.15, 0.35, 0.25}

// exactCandidate is a predicate the served binning can decide from codes:
// equality with a category of a column that has no "other" bin, or a
// missing-value test.
type exactCandidate struct {
	pred  predicate
	share float64
}

func equalities(cands []exactCandidate) []exactCandidate {
	var out []exactCandidate
	for _, c := range cands {
		if c.pred.Op == "=" {
			out = append(out, c)
		}
	}
	return out
}

// rank is the v-th of numVariants evenly spaced positions in n ordered
// candidates.
func rank(v, n int) int { return (2*v + 1) * n / (2 * numVariants) }

// chooseVariants picks the table's eight scripts from the generated data.
func (td *tableData) chooseVariants(ds *datagen.Dataset) error {
	var numeric []*table.Column
	rows := float64(ds.T.NumRows())
	inRange := func(n int) bool { return float64(n)/rows >= minExactShare && float64(n)/rows <= maxExactShare }
	for _, c := range ds.T.Columns() {
		if n := c.MissingCount(); inRange(n) {
			td.exact = append(td.exact, exactCandidate{predicate{Col: c.Name, Op: "missing"}, float64(n) / rows})
			td.retain(ds.T, c.Name)
		}
		switch {
		case c.Kind == table.Categorical && c.Distinct() <= maxBins:
			counts := map[string]int{}
			for r := 0; r < c.Len(); r++ {
				if !c.Missing(r) {
					counts[c.CellString(r)]++
				}
			}
			for val, n := range counts {
				if inRange(n) {
					td.exact = append(td.exact, exactCandidate{predicate{Col: c.Name, Op: "=", Str: val}, float64(n) / rows})
					td.retain(ds.T, c.Name)
				}
			}
		case c.Kind == table.Numeric && c.Distinct() >= 64 && c.MissingCount()*5 < c.Len():
			numeric = append(numeric, c)
		}
	}
	// Equality on a category selects ordinary rows; a missing-value test
	// selects rows that are degenerate in other columns too (a cancelled
	// flight misses every in-flight measure) and cluster erratically. Use
	// the tests only where the table offers no equality candidate.
	if eq := equalities(td.exact); len(eq) > 0 {
		td.exact = eq
	}
	if len(td.exact) == 0 || len(numeric) == 0 {
		return fmt.Errorf("dataset %s: no column fits an exact (%d) or a residual (%d) predicate", ds.Name, len(td.exact), len(numeric))
	}
	sort.Slice(td.exact, func(i, j int) bool {
		a, b := td.exact[i], td.exact[j]
		if a.share != b.share {
			return a.share < b.share
		}
		if a.pred.Col != b.pred.Col {
			return a.pred.Col < b.pred.Col
		}
		return a.pred.Str < b.pred.Str
	})
	for v := range td.Variants {
		ei := rank(v, len(td.exact))
		c := numeric[rank(v, len(numeric))]
		td.retain(ds.T, c.Name)
		q := residualQuantiles[v]
		va := variant{
			Exact:    td.exact[ei].pred,
			exactIdx: ei,
			Residual: predicate{Col: c.Name, Op: "<", Num: boundAt(td.Num[c.Name], q, 0)},
			quantile: q,
		}
		if v%2 == 1 && len(ds.Targets) > 0 {
			va.Targets = ds.Targets[:1]
		}
		td.Variants[v] = va
	}
	return nil
}

// retain keeps one column of t the way the server will see it: categorical
// cells as strings, numeric cells as the value their CSV rendering parses
// back to (missing = NaN).
func (td *tableData) retain(t *table.Table, col string) {
	c := t.Column(col)
	if c.Kind == table.Categorical {
		if _, ok := td.Cat[col]; ok {
			return
		}
		vals := make([]string, c.Len())
		for r := range vals {
			if !c.Missing(r) {
				vals[r] = c.CellString(r)
			}
		}
		td.Cat[col] = vals
		return
	}
	if _, ok := td.Num[col]; ok {
		return
	}
	vals := make([]float64, c.Len())
	for r := range vals {
		vals[r] = math.NaN()
		if !c.Missing(r) {
			if v, err := strconv.ParseFloat(c.CellString(r), 64); err == nil {
				vals[r] = v
			}
		}
	}
	td.Num[col] = vals
}

// boundAt returns a `<` bound near quantile q of the column's non-missing
// values: the midpoint of the gap between two adjacent distinct values, so
// no row sits on the bound. skip moves that many gaps further up — the
// set-up uses it when the served binning happens to cut exactly there,
// which would make the predicate code-only instead of residual.
func boundAt(vals []float64, q float64, skip int) float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	for ; i+1 < len(s); i++ {
		if s[i+1] > s[i] {
			if skip == 0 {
				return s[i] + (s[i+1]-s[i])/2
			}
			skip--
		}
	}
	return s[len(s)-1] + 1
}

// matches evaluates a predicate on a retained row exactly as
// query.Predicate does on the served table.
func (td *tableData) matches(p predicate, row int) bool {
	cat, isCat := td.Cat[p.Col]
	num, isNum := td.Num[p.Col]
	switch {
	case isCat && p.Op == "=":
		return cat[row] != "" && cat[row] == p.Str
	case isCat && p.Op == "missing":
		return cat[row] == ""
	case isNum && p.Op == "missing":
		return math.IsNaN(num[row])
	case isNum && p.Op == "<":
		return num[row] < p.Num
	}
	return false
}

// matching counts the rows of the table a predicate selects.
func (td *tableData) matching(p predicate) int {
	n := 0
	for row := 0; row < td.Rows; row++ {
		if td.matches(p, row) {
			n++
		}
	}
	return n
}

// shape is the block every select-shaped body shares.
type shape struct {
	K       int      `json:"k"`
	L       int      `json:"l"`
	Targets []string `json:"targets,omitempty"`
	Scale   *scale   `json:"scale,omitempty"`
}

type scale struct {
	Threshold int `json:"threshold"`
}

type selectBody struct {
	Where []predicate `json:"where,omitempty"`
	shape
}

type drillBody struct {
	Row int    `json:"row"`
	Col string `json:"col"`
	shape
}

func (v *variant) shape(threshold int) shape {
	s := shape{K: viewK, L: viewL, Targets: v.Targets}
	if threshold > 0 {
		s.Scale = &scale{Threshold: threshold}
	}
	return s
}

// selectBodies renders the three select request bodies of a variant:
// unfiltered, exact-filtered, residual-filtered. They are fixed for the
// whole run; only the drill-down body depends on a response.
func (v *variant) selectBodies(threshold int) [3][]byte {
	var out [3][]byte
	for i, where := range [][]predicate{nil, {v.Exact}, {v.Residual}} {
		out[i] = mustJSON(selectBody{Where: where, shape: v.shape(threshold)})
	}
	return out
}

func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on the benchmark's own plain structs
	}
	return buf
}

// epochVisits is how long one set of tables stays popular.
const epochVisits = 200

// zipfTables returns the table index of each of n visits: a popularity
// rank drawn from a seeded Zipf(s), mapped to a table by the epoch the
// visit falls in. Every epochVisits visits the ranks move on by hot tables
// (the size of the model cache), so over tables/hot epochs every table has
// been among the popular ones and served from memory: the warm figures are
// then means over all the tables of a run, not over the ten the cache
// happens to hold, whose luck with their data moved them by a tenth from
// seed to seed.
func zipfTables(seed int64, s float64, tables, hot, n int) []int {
	rng := rand.New(rand.NewSource(mix(seed, 2)))
	z := rand.NewZipf(rng, s, 1, uint64(tables-1))
	out := make([]int, n)
	for i := range out {
		out[i] = (int(z.Uint64()) + i/epochVisits*hot) % tables
	}
	return out
}
