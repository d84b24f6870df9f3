// Package query implements the exploratory-query layer over tables:
// selection (conjunctive predicates), projection, group-by with aggregates,
// and sorting. These are exactly the operations of the EDA sessions the
// paper replays in its simulation study (select, project, group-by, sort),
// and SubTab's Selection phase runs on the result of such queries.
package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"subtab/internal/table"
)

// ErrCellsPaged is returned when predicate evaluation is asked to run over a
// schema husk — a table whose cell payloads were dropped in favour of an
// external column store. Evaluating predicates there would index nil column
// slices; callers on paged tables use the code-level streaming evaluator
// (binning.CompileFilter), or evaluate over a materialized resident copy.
var ErrCellsPaged = errors.New("query: table cells are paged (schema husk); use the streaming code-level evaluator")

// Op is a comparison operator for selection predicates.
type Op int

const (
	Eq Op = iota // equals (numeric or categorical)
	Neq
	Lt  // numeric only
	Leq // numeric only
	Gt  // numeric only
	Geq // numeric only
	IsMissing
	NotMissing
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Neq:
		return "!="
	case Lt:
		return "<"
	case Leq:
		return "<="
	case Gt:
		return ">"
	case Geq:
		return ">="
	case IsMissing:
		return "IS NULL"
	case NotMissing:
		return "IS NOT NULL"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a single column comparison. For categorical columns only
// Eq/Neq/IsMissing/NotMissing are meaningful; Str holds the comparand. For
// numeric columns Num holds the comparand.
type Predicate struct {
	Col string
	Op  Op
	Num float64
	Str string
}

// String renders the predicate, e.g. `DISTANCE >= 1546`.
func (p Predicate) String() string {
	switch p.Op {
	case IsMissing, NotMissing:
		return fmt.Sprintf("%s %s", p.Col, p.Op)
	}
	if p.Str != "" {
		return fmt.Sprintf("%s %s %q", p.Col, p.Op, p.Str)
	}
	return fmt.Sprintf("%s %s %g", p.Col, p.Op, p.Num)
}

// Matches reports whether row r of t satisfies the predicate. Unknown
// columns match nothing. Missing cells only match IsMissing. t must hold
// resident cells — query entry points refuse husk tables with ErrCellsPaged
// before any Matches call can index a dropped column.
func (p Predicate) Matches(t *table.Table, r int) bool {
	c := t.Column(p.Col)
	if c == nil {
		return false
	}
	missing := c.Missing(r)
	switch p.Op {
	case IsMissing:
		return missing
	case NotMissing:
		return !missing
	}
	if missing {
		return false
	}
	if c.Kind == table.Categorical {
		s := c.Dict.String(c.Cats[r])
		switch p.Op {
		case Eq:
			return s == p.Str
		case Neq:
			return s != p.Str
		default:
			return false
		}
	}
	v := c.Nums[r]
	switch p.Op {
	case Eq:
		return v == p.Num
	case Neq:
		return v != p.Num
	case Lt:
		return v < p.Num
	case Leq:
		return v <= p.Num
	case Gt:
		return v > p.Num
	case Geq:
		return v >= p.Num
	default:
		return false
	}
}

// MatchesCell reports whether a rendered cell satisfies the predicate, given
// the column's kind. cell must follow table.Column.CellString's contract:
// "NaN" for missing, table.FormatNum for numeric (shortest round-trip, so
// ParseFloat recovers the exact stored float64), the dictionary string for
// categorical. This is the residual matcher of the code-level evaluator: it
// decides exactly as Matches would, but from the paged column store's
// rendered bytes instead of resident cells. The evaluator only consults it
// for rows whose missingness is already decided from codes (missing rows
// land in the dedicated missing bin), so the categorical value "NaN" —
// ambiguous with the missing rendering — never reaches the Eq/Neq arms for
// a missing row.
func (p Predicate) MatchesCell(kind table.Kind, cell string) bool {
	missing := cell == "NaN" && kind == table.Numeric
	switch p.Op {
	case IsMissing:
		return missing || (kind == table.Categorical && cell == "NaN")
	case NotMissing:
		return !missing && !(kind == table.Categorical && cell == "NaN")
	}
	if missing {
		return false
	}
	if kind == table.Categorical {
		switch p.Op {
		case Eq:
			return cell == p.Str
		case Neq:
			return cell != p.Str
		default:
			return false
		}
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return false
	}
	switch p.Op {
	case Eq:
		return v == p.Num
	case Neq:
		return v != p.Num
	case Lt:
		return v < p.Num
	case Leq:
		return v <= p.Num
	case Gt:
		return v > p.Num
	case Geq:
		return v >= p.Num
	default:
		return false
	}
}

// AggFunc is a group-by aggregate.
type AggFunc int

const (
	Count AggFunc = iota
	Sum
	Mean
	Min
	Max
)

// String returns the aggregate name.
func (a AggFunc) String() string {
	switch a {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Mean:
		return "mean"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// Aggregate pairs an aggregate function with the column it applies to.
// For Count the column may be empty.
type Aggregate struct {
	Func AggFunc
	Col  string
}

// Query is an exploratory query: conjunctive selection, projection, optional
// group-by with aggregates, optional sort, optional row limit.
type Query struct {
	Where   []Predicate // conjunction; empty = all rows
	Select  []string    // projection; empty = all columns
	GroupBy []string    // optional; with Aggs
	Aggs    []Aggregate // used only when GroupBy is non-empty
	OrderBy string      // optional sort column (applied after group-by)
	Asc     bool
	Limit   int // 0 = no limit
}

// String renders the query in a compact SQL-like form.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.GroupBy) > 0 {
		b.WriteString(strings.Join(q.GroupBy, ", "))
		for _, a := range q.Aggs {
			fmt.Fprintf(&b, ", %s(%s)", a.Func, a.Col)
		}
	} else if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(q.Select, ", "))
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(q.Where))
		for i, p := range q.Where {
			parts[i] = p.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	if q.OrderBy != "" {
		dir := "DESC"
		if q.Asc {
			dir = "ASC"
		}
		fmt.Fprintf(&b, " ORDER BY %s %s", q.OrderBy, dir)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// MatchingRows returns the indices of rows satisfying all Where predicates.
// It refuses schema husks with ErrCellsPaged: a dropped-cells table has nil
// column payloads, so Matches would panic (or silently lie about missing
// cells) instead of evaluating.
func (q *Query) MatchingRows(t *table.Table) ([]int, error) {
	if !t.CellsResident() {
		return nil, fmt.Errorf("evaluating %d predicate(s): %w", len(q.Where), ErrCellsPaged)
	}
	rows := make([]int, 0, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		ok := true
		for _, p := range q.Where {
			if !p.Matches(t, r) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Apply executes the query against t and returns the result table together
// with the source-row indices of each result row. For group-by queries the
// source indices are the first member row of each group (the result rows are
// synthesized aggregates, so rowIdx is a representative, not an identity).
// Like MatchingRows, Apply refuses husk tables with ErrCellsPaged.
func (q *Query) Apply(t *table.Table) (*table.Table, []int, error) {
	rows, err := q.MatchingRows(t)
	if err != nil {
		return nil, nil, err
	}

	var res *table.Table
	if len(q.GroupBy) > 0 {
		res, rows, err = q.applyGroupBy(t, rows)
		if err != nil {
			return nil, nil, err
		}
	} else {
		res = t.SelectRows(rows)
		if len(q.Select) > 0 {
			res, err = res.Project(q.Select)
			if err != nil {
				return nil, nil, err
			}
		}
	}

	if q.OrderBy != "" && res.Column(q.OrderBy) != nil {
		perm, err := res.SortIndices(q.OrderBy, q.Asc)
		if err != nil {
			return nil, nil, err
		}
		res = res.SelectRows(perm)
		srcRows := make([]int, len(perm))
		for i, p := range perm {
			srcRows[i] = rows[p]
		}
		rows = srcRows
	}

	if q.Limit > 0 && q.Limit < res.NumRows() {
		keep := make([]int, q.Limit)
		for i := range keep {
			keep[i] = i
		}
		res = res.SelectRows(keep)
		rows = rows[:q.Limit]
	}
	return res, rows, nil
}

// applyGroupBy groups the selected rows by the GroupBy columns and computes
// the aggregates per group.
func (q *Query) applyGroupBy(t *table.Table, rows []int) (*table.Table, []int, error) {
	keyCols := make([]*table.Column, len(q.GroupBy))
	for i, name := range q.GroupBy {
		c := t.Column(name)
		if c == nil {
			return nil, nil, fmt.Errorf("query: unknown group-by column %q", name)
		}
		keyCols[i] = c
	}
	type group struct {
		first int
		rows  []int
	}
	groups := make(map[string]*group)
	var order []string
	for _, r := range rows {
		var key strings.Builder
		for _, c := range keyCols {
			key.WriteString(c.CellString(r))
			key.WriteByte('\x00')
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &group{first: r}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	sort.Strings(order) // deterministic group order

	out := table.New(t.Name)
	firstRows := make([]int, len(order))
	// Key columns.
	for i, name := range q.GroupBy {
		src := keyCols[i]
		if src.Kind == table.Numeric {
			vals := make([]float64, len(order))
			for gi, k := range order {
				vals[gi] = src.Nums[groups[k].first]
			}
			if err := out.AddColumn(table.NewNumeric(name, vals)); err != nil {
				return nil, nil, err
			}
		} else {
			vals := make([]string, len(order))
			for gi, k := range order {
				r := groups[k].first
				if src.Missing(r) {
					vals[gi] = ""
				} else {
					vals[gi] = src.Dict.String(src.Cats[r])
				}
			}
			if err := out.AddColumn(table.NewCategorical(name, vals)); err != nil {
				return nil, nil, err
			}
		}
	}
	// Aggregates.
	for _, agg := range q.Aggs {
		name := agg.Func.String()
		if agg.Col != "" {
			name += "_" + agg.Col
		}
		vals := make([]float64, len(order))
		for gi, k := range order {
			v, err := computeAgg(t, agg, groups[k].rows)
			if err != nil {
				return nil, nil, err
			}
			vals[gi] = v
		}
		if err := out.AddColumn(table.NewNumeric(name, vals)); err != nil {
			return nil, nil, err
		}
	}
	for gi, k := range order {
		firstRows[gi] = groups[k].first
	}
	return out, firstRows, nil
}

func computeAgg(t *table.Table, agg Aggregate, rows []int) (float64, error) {
	if agg.Func == Count {
		return float64(len(rows)), nil
	}
	c := t.Column(agg.Col)
	if c == nil {
		return 0, fmt.Errorf("query: unknown aggregate column %q", agg.Col)
	}
	if c.Kind != table.Numeric {
		return 0, fmt.Errorf("query: aggregate %s over categorical column %q", agg.Func, agg.Col)
	}
	sum, n := 0.0, 0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		v := c.Nums[r]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	switch agg.Func {
	case Sum:
		return sum, nil
	case Mean:
		if n == 0 {
			return math.NaN(), nil
		}
		return sum / float64(n), nil
	case Min:
		if n == 0 {
			return math.NaN(), nil
		}
		return mn, nil
	case Max:
		if n == 0 {
			return math.NaN(), nil
		}
		return mx, nil
	default:
		return 0, fmt.Errorf("query: unsupported aggregate %v", agg.Func)
	}
}
