package table

import "fmt"

// CellSource provides a table's rendered cells — the display-side analogue
// of binning.CodeSource. A selection is a k×l view over the source table,
// assembled by gathering exactly those k rows' cells: from the in-memory
// columns (a resident *Table is its own CellSource), a paged column store,
// or, on a sharded coordinator, over the wire.
//
// GatherCells must return, for each requested row, the exact bytes
// Column.CellString produces on the resident column: "NaN" for missing
// cells, FormatNum for numeric values, the dictionary string for
// categorical codes. That contract is what keeps paged selections
// byte-identical to in-memory ones.
type CellSource interface {
	// NumRows returns the source table's row count.
	NumRows() int
	// NumCols returns the source table's column count.
	NumCols() int
	// ColumnName returns the name of column c.
	ColumnName(c int) string
	// GatherCells returns the rendered cells of column c at the given rows,
	// in order (rows may repeat). Implementations may not retain rows.
	GatherCells(c int, rows []int) ([]string, error)
}

// ViewFromCells assembles a rendered k×l view table from per-column cell
// strings (colCells[j][i] is row i of column j). Every cell string is
// interned verbatim into a per-column dictionary, so the resulting table
// Renders the exact bytes it was given — including "NaN" cells, which stay
// literal strings rather than missing markers.
func ViewFromCells(name string, colNames []string, colCells [][]string) (*Table, error) {
	if len(colNames) != len(colCells) {
		return nil, fmt.Errorf("table %s: %d column names for %d cell columns", name, len(colNames), len(colCells))
	}
	out := New(name)
	for j, cells := range colCells {
		d := NewDict()
		codes := make([]int32, len(cells))
		for i, s := range cells {
			codes[i] = d.Code(s)
		}
		col := &Column{Name: colNames[j], Kind: Categorical, Cats: codes, Dict: d}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ViewCellGatherer is the optional batch extension of CellSource: sources
// whose per-column gathers each pay a round trip (a sharded coordinator
// fetching over the wire) implement it to serve all of a view's columns in
// one call. GatherView prefers it when present.
type ViewCellGatherer interface {
	// GatherViewCells returns cells[col][row] for the requested columns and
	// rows, each column's cells under the GatherCells contract.
	GatherViewCells(cols []int, rows []int) ([][]string, error)
}

// GatherView builds the k×l view SubTableView would produce over the
// resident table, reading the cells through src. cols are source
// column indices; the view's columns appear in the given order under the
// source's column names.
func GatherView(src CellSource, name string, rows []int, cols []int) (*Table, error) {
	names := make([]string, len(cols))
	for j, c := range cols {
		if c < 0 || c >= src.NumCols() {
			return nil, fmt.Errorf("table %s: cell source has no column %d", name, c)
		}
		names[j] = src.ColumnName(c)
	}
	if g, ok := src.(ViewCellGatherer); ok {
		colCells, err := g.GatherViewCells(cols, rows)
		if err != nil {
			return nil, fmt.Errorf("table %s: gathering view cells: %w", name, err)
		}
		return ViewFromCells(name, names, colCells)
	}
	colCells := make([][]string, len(cols))
	for j, c := range cols {
		cells, err := src.GatherCells(c, rows)
		if err != nil {
			return nil, fmt.Errorf("table %s: gathering column %q: %w", name, names[j], err)
		}
		colCells[j] = cells
	}
	return ViewFromCells(name, names, colCells)
}
