// Package table implements the relational-table substrate that SubTab
// operates on: typed, column-major tables with first-class missing values,
// CSV input/output, projections, row selections and plain-text rendering.
//
// It plays the role Pandas plays in the paper's implementation: tables are
// loaded once, queried with selection/projection/group-by/sort (see package
// query), and rendered as small textual sub-tables.
package table

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of a column.
type Kind int

const (
	// Numeric columns store float64 values; math.NaN() marks a missing cell.
	Numeric Kind = iota
	// Categorical columns store dictionary-encoded strings; code -1 marks a
	// missing cell.
	Categorical
)

// String returns "numeric" or "categorical".
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dict is an order-preserving string dictionary for categorical columns.
type Dict struct {
	strs []string
	idx  map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{idx: make(map[string]int32)}
}

// Code returns the code for s, interning it if necessary.
func (d *Dict) Code(s string) int32 {
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := int32(len(d.strs))
	d.strs = append(d.strs, s)
	d.idx[s] = c
	return c
}

// Lookup returns the code for s and whether it is present.
func (d *Dict) Lookup(s string) (int32, bool) {
	c, ok := d.idx[s]
	return c, ok
}

// String returns the string for code c; it panics on out-of-range codes.
func (d *Dict) String(c int32) string { return d.strs[c] }

// Size returns the number of distinct strings.
func (d *Dict) Size() int { return len(d.strs) }

// Strings returns a copy of the interned strings in code order (code i is
// out[i]) — the payload of a serialized dictionary page.
func (d *Dict) Strings() []string {
	out := make([]string, len(d.strs))
	copy(out, d.strs)
	return out
}

// DictFromStrings rebuilds a dictionary from a dictionary page's strings:
// string i gets code i, exactly reversing Strings. Both halves are sized
// once, for every string.
func DictFromStrings(strs []string) *Dict {
	d := &Dict{strs: make([]string, 0, len(strs)), idx: make(map[string]int32, len(strs))}
	for _, s := range strs {
		d.Code(s)
	}
	return d
}

// clone deep-copies the dictionary. Appends extend the clone, never the
// original, so readers of the source table are unaffected.
func (d *Dict) clone() *Dict {
	out := &Dict{strs: make([]string, len(d.strs)), idx: make(map[string]int32, len(d.strs))}
	copy(out.strs, d.strs)
	for i, s := range out.strs {
		out.idx[s] = int32(i)
	}
	return out
}

// Column is a single typed column. Exactly one of Nums/Cats is populated
// depending on Kind.
type Column struct {
	Name string
	Kind Kind
	Nums []float64 // Kind == Numeric; NaN marks missing
	Cats []int32   // Kind == Categorical; -1 marks missing
	Dict *Dict     // Kind == Categorical
}

// NewNumeric returns a numeric column wrapping vals (not copied).
func NewNumeric(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: Numeric, Nums: vals}
}

// NewCategorical returns a categorical column from raw string values; empty
// strings are stored as missing.
func NewCategorical(name string, vals []string) *Column {
	d := NewDict()
	codes := make([]int32, len(vals))
	for i, v := range vals {
		if v == "" {
			codes[i] = -1
			continue
		}
		codes[i] = d.Code(v)
	}
	return &Column{Name: name, Kind: Categorical, Cats: codes, Dict: d}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.Kind == Numeric {
		return len(c.Nums)
	}
	return len(c.Cats)
}

// Missing reports whether the cell at row r is missing.
func (c *Column) Missing(r int) bool {
	if c.Kind == Numeric {
		return math.IsNaN(c.Nums[r])
	}
	return c.Cats[r] < 0
}

// MissingCount returns the number of missing cells.
func (c *Column) MissingCount() int {
	n := 0
	for r := 0; r < c.Len(); r++ {
		if c.Missing(r) {
			n++
		}
	}
	return n
}

// CellString renders the cell at row r ("NaN" for missing).
func (c *Column) CellString(r int) string {
	if c.Missing(r) {
		return "NaN"
	}
	if c.Kind == Numeric {
		return FormatNum(c.Nums[r])
	}
	return c.Dict.String(c.Cats[r])
}

// FormatNum renders a non-missing numeric cell — the exact bytes CellString
// and Value.String produce. It is exported so out-of-table cell renderers
// (the paged column store) stay byte-identical to in-memory rendering.
// The bytes are those of fmt's "%.0f" for integral |v| < 1e15 and "%g"
// otherwise, produced by strconv directly: an integral value is an exact
// int64, and "%g" is strconv's shortest 'g' form.
func FormatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		if v == 0 && math.Signbit(v) {
			return "-0" // "%.0f" keeps the sign of negative zero
		}
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Distinct returns the number of distinct non-missing values.
func (c *Column) Distinct() int {
	if c.Kind == Categorical {
		seen := make(map[int32]struct{})
		for _, v := range c.Cats {
			if v >= 0 {
				seen[v] = struct{}{}
			}
		}
		return len(seen)
	}
	seen := make(map[float64]struct{})
	for _, v := range c.Nums {
		if !math.IsNaN(v) {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// gather returns a new column with the rows at the given indices, sharing the
// dictionary with the source column.
func (c *Column) gather(rows []int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind, Dict: c.Dict}
	if c.Kind == Numeric {
		out.Nums = make([]float64, len(rows))
		for i, r := range rows {
			out.Nums[i] = c.Nums[r]
		}
	} else {
		out.Cats = make([]int32, len(rows))
		for i, r := range rows {
			out.Cats[i] = c.Cats[r]
		}
	}
	return out
}

// Value is a dynamically typed cell value.
type Value struct {
	Missing bool
	Kind    Kind
	Num     float64
	Str     string
}

// String renders the value ("NaN" for missing).
func (v Value) String() string {
	if v.Missing {
		return "NaN"
	}
	if v.Kind == Numeric {
		return FormatNum(v.Num)
	}
	return v.Str
}

// Table is a finite relation: an ordered set of equal-length typed columns.
//
// A table can be *paged*: its cell payloads dropped (DropCells) because
// they live in an external column store, leaving a schema husk that still
// reports its row count and column names/kinds. Operations that touch cell
// data panic on a paged table (GatherCells returns an error); callers gate
// on CellsResident and read through a CellSource instead.
type Table struct {
	Name   string
	cols   []*Column
	byName map[string]int

	paged     bool
	pagedRows int // row count while the cell payloads are dropped
}

// New returns an empty table with the given name.
func New(name string) *Table {
	return &Table{Name: name, byName: make(map[string]int)}
}

// FromColumns builds a table from pre-built columns. All columns must have
// equal length and distinct names.
func FromColumns(name string, cols []*Column) (*Table, error) {
	t := New(name)
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AddColumn appends a column. It errors on duplicate names or length
// mismatches with existing columns.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.byName[c.Name]; dup {
		return fmt.Errorf("table %s: duplicate column %q", t.Name, c.Name)
	}
	if len(t.cols) > 0 && c.Len() != t.NumRows() {
		return fmt.Errorf("table %s: column %q has %d rows, table has %d",
			t.Name, c.Name, c.Len(), t.NumRows())
	}
	t.byName[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if t.paged {
		return t.pagedRows
	}
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// DropCells releases every column's cell payload (values and
// dictionaries), leaving a schema-only table in paged mode: NumRows and the
// column names/kinds keep answering, cell reads panic. Used once the cells
// live in an external column store.
func (t *Table) DropCells() {
	if t.paged {
		return
	}
	t.pagedRows = t.NumRows()
	t.paged = true
	for _, c := range t.cols {
		c.Nums, c.Cats, c.Dict = nil, nil, nil
	}
}

// CellsResident reports whether the cell payloads are in memory (false =
// paged mode; reads must go through a CellSource).
func (t *Table) CellsResident() bool { return !t.paged }

// ApproxBytes estimates the heap bytes of the table's resident cell
// payloads: numeric values, categorical codes, and dictionary strings
// (string header + bytes, interned once per distinct value; the reverse
// index is counted at the same cost as the forward slice). Zero for a
// paged table. The estimate feeds the serving layer's byte-weighted
// accounting, so it aims at proportionality, not malloc-exact truth.
func (t *Table) ApproxBytes() int64 {
	if t.paged {
		return 0
	}
	var b int64
	for _, c := range t.cols {
		b += int64(len(c.Nums)) * 8
		b += int64(len(c.Cats)) * 4
		if c.Dict != nil {
			for _, s := range c.Dict.strs {
				b += 2 * (16 + int64(len(s))) // forward slice + reverse map
			}
		}
	}
	return b
}

// MarkPaged puts a schema-only table (columns with empty payloads, as
// deserialized from a paged model file) into paged mode with the given row
// count.
func (t *Table) MarkPaged(rows int) {
	t.paged = true
	t.pagedRows = rows
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the columns in order. The slice must not be mutated.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.cols[i]
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// ColumnAt returns the column at position i.
func (t *Table) ColumnAt(i int) *Column { return t.cols[i] }

// ColumnName returns the name of column c. With GatherCells it makes a
// table its own CellSource.
func (t *Table) ColumnName(c int) string { return t.cols[c].Name }

// GatherCells renders column c's cells at the given rows, in order (rows
// may repeat): Column.CellString's bytes, which define the CellSource
// contract. A paged table holds no cells and returns an error.
func (t *Table) GatherCells(c int, rows []int) ([]string, error) {
	if t.paged {
		return nil, fmt.Errorf("table %s: cells are paged out; read them through the column store", t.Name)
	}
	col := t.cols[c]
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = col.CellString(r)
	}
	return out, nil
}

// Cell returns the value at row r of the named column.
func (t *Table) Cell(r int, name string) Value {
	c := t.Column(name)
	if c == nil {
		return Value{Missing: true}
	}
	return t.CellAt(r, t.byName[name])
}

// CellAt returns the value at row r, column index ci.
func (t *Table) CellAt(r, ci int) Value {
	c := t.cols[ci]
	if c.Missing(r) {
		return Value{Missing: true, Kind: c.Kind}
	}
	if c.Kind == Numeric {
		return Value{Kind: Numeric, Num: c.Nums[r]}
	}
	return Value{Kind: Categorical, Str: c.Dict.String(c.Cats[r])}
}

// Project returns a new table with only the named columns, in the given
// order. Unknown names produce an error. Column data is shared, not copied.
func (t *Table) Project(names []string) (*Table, error) {
	out := New(t.Name)
	for _, name := range names {
		i, ok := t.byName[name]
		if !ok {
			return nil, fmt.Errorf("table %s: unknown column %q", t.Name, name)
		}
		if err := out.AddColumn(t.cols[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SelectRows returns a new table containing the rows at the given indices,
// in order (indices may repeat). It panics on out-of-range indices.
func (t *Table) SelectRows(rows []int) *Table {
	out := New(t.Name)
	for _, c := range t.cols {
		// AddColumn cannot fail here: names are unique and lengths equal.
		_ = out.AddColumn(c.gather(rows))
	}
	return out
}

// AppendRows returns a new table holding t's rows followed by src's rows.
// The receiver is NOT mutated: every column (and every categorical
// dictionary) of the result is freshly allocated, so selections running
// against t — or against a model wrapping t — are unaffected while an append
// is in flight. This is the substrate of the streaming ingestion path
// (core.Model.Append).
//
// Columns are matched by name: src must have exactly t's column set (any
// order). Kinds must agree, except that an all-missing src column matches
// either kind — a CSV chunk whose cells are all empty cannot infer its type.
// New categorical strings are interned into the result's (cloned)
// dictionaries in row order, exactly where a fresh CSV read of the
// concatenated data would put them.
func (t *Table) AppendRows(src *Table) (*Table, error) {
	if src.NumCols() != t.NumCols() {
		return nil, fmt.Errorf("table %s: appending %d columns to %d", t.Name, src.NumCols(), t.NumCols())
	}
	oldN, addN := t.NumRows(), src.NumRows()
	out := New(t.Name)
	for _, c := range t.cols {
		sc := src.Column(c.Name)
		if sc == nil {
			return nil, fmt.Errorf("table %s: appended rows lack column %q", t.Name, c.Name)
		}
		if sc.Kind != c.Kind && sc.MissingCount() != sc.Len() {
			return nil, fmt.Errorf("table %s: column %q is %v, appended rows have %v",
				t.Name, c.Name, c.Kind, sc.Kind)
		}
		nc := &Column{Name: c.Name, Kind: c.Kind}
		if c.Kind == Numeric {
			nc.Nums = make([]float64, oldN+addN)
			copy(nc.Nums, c.Nums)
			for r := 0; r < addN; r++ {
				if sc.Missing(r) {
					nc.Nums[oldN+r] = math.NaN()
				} else {
					nc.Nums[oldN+r] = sc.Nums[r]
				}
			}
		} else {
			if c.Dict != nil {
				nc.Dict = c.Dict.clone()
			} else {
				nc.Dict = NewDict()
			}
			nc.Cats = make([]int32, oldN+addN)
			copy(nc.Cats, c.Cats)
			for r := 0; r < addN; r++ {
				if sc.Missing(r) {
					nc.Cats[oldN+r] = -1
				} else {
					nc.Cats[oldN+r] = nc.Dict.Code(sc.Dict.String(sc.Cats[r]))
				}
			}
		}
		if err := out.AddColumn(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SubTableView returns the k×l table given by row indices and column names.
func (t *Table) SubTableView(rows []int, cols []string) (*Table, error) {
	p, err := t.Project(cols)
	if err != nil {
		return nil, err
	}
	return p.SelectRows(rows), nil
}

// Head returns the first n rows (Pandas-style default display).
func (t *Table) Head(n int) *Table {
	if n > t.NumRows() {
		n = t.NumRows()
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return t.SelectRows(rows)
}

// Clone deep-copies the table (dictionaries are shared; they are append-only).
func (t *Table) Clone() *Table {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return t.SelectRows(rows)
}

// SortRows stably reorders the row indices rows in place by the named
// column (missing last).
func (t *Table) SortRows(name string, rows []int, ascending bool) error {
	c := t.Column(name)
	if c == nil {
		return fmt.Errorf("table %s: unknown column %q", t.Name, name)
	}
	less := func(i, j int) bool {
		a, b := rows[i], rows[j]
		ma, mb := c.Missing(a), c.Missing(b)
		if ma || mb {
			return !ma && mb // missing sorts last regardless of direction
		}
		if c.Kind == Numeric {
			if ascending {
				return c.Nums[a] < c.Nums[b]
			}
			return c.Nums[a] > c.Nums[b]
		}
		sa, sb := c.Dict.String(c.Cats[a]), c.Dict.String(c.Cats[b])
		if ascending {
			return sa < sb
		}
		return sa > sb
	}
	sort.SliceStable(rows, less)
	return nil
}

// String renders the table as an aligned plain-text grid.
func (t *Table) String() string { return t.Render(nil) }

// Render renders the table; highlight, if non-nil, maps (row, colIndex) cells
// to be wrapped in [ ] markers (used to highlight association rules, as the
// paper's UI does with colors).
func (t *Table) Render(highlight func(r, ci int) bool) string {
	n, m := t.NumRows(), t.NumCols()
	widths := make([]int, m)
	cells := make([][]string, n+1)
	cells[0] = make([]string, m)
	for ci, c := range t.cols {
		cells[0][ci] = c.Name
		widths[ci] = len(c.Name)
	}
	for r := 0; r < n; r++ {
		cells[r+1] = make([]string, m)
		for ci := range t.cols {
			s := t.cols[ci].CellString(r)
			if highlight != nil && highlight(r, ci) {
				s = "[" + s + "]"
			}
			cells[r+1][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for ri, row := range cells {
		for ci, s := range row {
			if ci > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[ci], s)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for ci, w := range widths {
				if ci > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
