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
//
// Apply copies cells once: the projection shares t's columns, the sort and
// the limit work on row ids, and the result gathers the kept rows in their
// final order.
func (q *Query) Apply(t *table.Table) (*table.Table, []int, error) {
	rows, err := q.MatchingRows(t)
	if err != nil {
		return nil, nil, err
	}
	// res holds the result's cells and keep its rows in result order; a
	// group-by's res row g stands for source row first[g].
	res, keep := t, rows
	var first []int
	switch {
	case len(q.GroupBy) > 0:
		if res, first, err = q.applyGroupBy(t, rows); err != nil {
			return nil, nil, err
		}
		keep = make([]int, len(first))
		for g := range keep {
			keep[g] = g
		}
	case len(q.Select) > 0:
		if res, err = t.Project(q.Select); err != nil {
			return nil, nil, err
		}
	}
	if q.OrderBy != "" && res.Column(q.OrderBy) != nil {
		if err := res.SortRows(q.OrderBy, keep, q.Asc); err != nil {
			return nil, nil, err
		}
	}
	if q.Limit > 0 && q.Limit < len(keep) {
		keep = keep[:q.Limit]
	}
	src := keep
	if len(q.GroupBy) > 0 {
		src = make([]int, len(keep))
		for i, g := range keep {
			src[i] = first[g]
		}
	}
	return res.SelectRows(keep), src, nil
}

// applyGroupBy groups the selected rows by the GroupBy columns and computes
// the aggregates per group, returning one row per group in key order and
// each group's first member row. It holds one group id per row, not the
// groups' row lists: every aggregate is one pass over the rows.
func (q *Query) applyGroupBy(t *table.Table, rows []int) (*table.Table, []int, error) {
	keyCols := make([]*table.Column, len(q.GroupBy))
	for i, name := range q.GroupBy {
		c := t.Column(name)
		if c == nil {
			return nil, nil, fmt.Errorf("query: unknown group-by column %q", name)
		}
		keyCols[i] = c
	}
	index := make(map[string]int)
	var keys []string
	var first []int
	gid := make([]int32, len(rows))
	var key []byte
	for i, r := range rows {
		key = key[:0]
		for _, c := range keyCols {
			key = append(key, c.CellString(r)...)
			key = append(key, 0)
		}
		g, ok := index[string(key)]
		if !ok {
			g = len(keys)
			index[string(key)] = g
			keys = append(keys, string(key))
			first = append(first, r)
		}
		gid[i] = int32(g)
	}
	// order lists the groups in key order (keys are distinct); rank is
	// each group's place in it.
	order := make([]int, len(keys))
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	rank := make([]int32, len(keys))
	firstRows := make([]int, len(keys))
	for gi, g := range order {
		rank[g] = int32(gi)
		firstRows[gi] = first[g]
	}
	for i := range gid {
		gid[i] = rank[gid[i]]
	}

	out := table.New(t.Name)
	// Key columns.
	for i, name := range q.GroupBy {
		src := keyCols[i]
		if src.Kind == table.Numeric {
			vals := make([]float64, len(firstRows))
			for gi, r := range firstRows {
				vals[gi] = src.Nums[r]
			}
			if err := out.AddColumn(table.NewNumeric(name, vals)); err != nil {
				return nil, nil, err
			}
		} else {
			vals := make([]string, len(firstRows))
			for gi, r := range firstRows {
				if !src.Missing(r) {
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
		vals, err := aggregate(t, agg, rows, gid, len(firstRows))
		if err != nil {
			return nil, nil, err
		}
		if err := out.AddColumn(table.NewNumeric(name, vals)); err != nil {
			return nil, nil, err
		}
	}
	return out, firstRows, nil
}

// aggregate computes agg for each of n groups, rows[i] belonging to group
// gid[i]. Each group's cells are summed in row order; missing (NaN) cells
// are skipped, and a group without a value reads NaN for mean, min and max.
// A query with no groups computes nothing and fails nothing.
func aggregate(t *table.Table, agg Aggregate, rows []int, gid []int32, n int) ([]float64, error) {
	out := make([]float64, n)
	if n == 0 {
		return out, nil
	}
	if agg.Func == Count {
		for _, g := range gid {
			out[g]++
		}
		return out, nil
	}
	c := t.Column(agg.Col)
	switch {
	case c == nil:
		return nil, fmt.Errorf("query: unknown aggregate column %q", agg.Col)
	case c.Kind != table.Numeric:
		return nil, fmt.Errorf("query: aggregate %s over categorical column %q", agg.Func, agg.Col)
	case agg.Func != Sum && agg.Func != Mean && agg.Func != Min && agg.Func != Max:
		return nil, fmt.Errorf("query: unsupported aggregate %v", agg.Func)
	}
	count := make([]int, n)
	for g := range out {
		switch agg.Func {
		case Min:
			out[g] = math.Inf(1)
		case Max:
			out[g] = math.Inf(-1)
		}
	}
	for i, r := range rows {
		v, g := c.Nums[r], gid[i]
		if math.IsNaN(v) {
			continue
		}
		count[g]++
		switch agg.Func {
		case Sum, Mean:
			out[g] += v
		case Min:
			if v < out[g] {
				out[g] = v
			}
		case Max:
			if v > out[g] {
				out[g] = v
			}
		}
	}
	for g := range out {
		switch {
		case agg.Func == Mean && count[g] > 0:
			out[g] /= float64(count[g])
		case agg.Func != Sum && count[g] == 0:
			out[g] = math.NaN()
		}
	}
	return out, nil
}
