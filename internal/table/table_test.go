package table

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// sample builds a small mixed table used across tests.
func sample(t *testing.T) *Table {
	t.Helper()
	tab := New("flights")
	if err := tab.AddColumn(NewNumeric("DISTANCE", []float64{100, 2000, math.NaN(), 550})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(NewCategorical("AIRLINE", []string{"AA", "B6", "AA", ""})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(NewNumeric("CANCELLED", []float64{0, 0, 1, 0})); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestDims(t *testing.T) {
	tab := sample(t)
	if tab.NumRows() != 4 || tab.NumCols() != 3 {
		t.Fatalf("dims = %dx%d, want 4x3", tab.NumRows(), tab.NumCols())
	}
}

func TestEmptyTable(t *testing.T) {
	tab := New("empty")
	if tab.NumRows() != 0 || tab.NumCols() != 0 {
		t.Fatal("empty table should be 0x0")
	}
}

func TestDuplicateColumnRejected(t *testing.T) {
	tab := New("t")
	if err := tab.AddColumn(NewNumeric("a", []float64{1})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(NewNumeric("a", []float64{2})); err == nil {
		t.Fatal("duplicate column name should be rejected")
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	tab := New("t")
	if err := tab.AddColumn(NewNumeric("a", []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(NewNumeric("b", []float64{1})); err == nil {
		t.Fatal("length mismatch should be rejected")
	}
}

func TestColumnLookup(t *testing.T) {
	tab := sample(t)
	if tab.Column("AIRLINE") == nil {
		t.Fatal("AIRLINE should exist")
	}
	if tab.Column("nope") != nil {
		t.Fatal("unknown column should be nil")
	}
	if tab.ColumnIndex("CANCELLED") != 2 {
		t.Fatalf("ColumnIndex(CANCELLED) = %d", tab.ColumnIndex("CANCELLED"))
	}
	if tab.ColumnIndex("nope") != -1 {
		t.Fatal("unknown column index should be -1")
	}
}

func TestCellValues(t *testing.T) {
	tab := sample(t)
	v := tab.Cell(1, "DISTANCE")
	if v.Missing || v.Num != 2000 {
		t.Fatalf("Cell(1,DISTANCE) = %+v", v)
	}
	v = tab.Cell(2, "DISTANCE")
	if !v.Missing {
		t.Fatal("NaN cell should be missing")
	}
	v = tab.Cell(0, "AIRLINE")
	if v.Missing || v.Str != "AA" {
		t.Fatalf("Cell(0,AIRLINE) = %+v", v)
	}
	v = tab.Cell(3, "AIRLINE")
	if !v.Missing {
		t.Fatal("empty categorical should be missing")
	}
	v = tab.Cell(0, "nope")
	if !v.Missing {
		t.Fatal("unknown column cell should be missing")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{Missing: true}, "NaN"},
		{Value{Kind: Numeric, Num: 3}, "3"},
		{Value{Kind: Numeric, Num: 3.5}, "3.5"},
		{Value{Kind: Categorical, Str: "x"}, "x"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Value%v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestProject(t *testing.T) {
	tab := sample(t)
	p, err := tab.Project([]string{"CANCELLED", "AIRLINE"})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.ColumnNames()[0] != "CANCELLED" {
		t.Fatalf("projection = %v", p.ColumnNames())
	}
	if p.NumRows() != 4 {
		t.Fatal("projection must preserve rows")
	}
	if _, err := tab.Project([]string{"nope"}); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestSelectRows(t *testing.T) {
	tab := sample(t)
	s := tab.SelectRows([]int{2, 0, 0})
	if s.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", s.NumRows())
	}
	if !s.Cell(0, "DISTANCE").Missing {
		t.Fatal("row 0 should be original row 2 (missing distance)")
	}
	if s.Cell(1, "AIRLINE").Str != "AA" || s.Cell(2, "AIRLINE").Str != "AA" {
		t.Fatal("rows 1,2 should be original row 0")
	}
}

func TestSubTableView(t *testing.T) {
	tab := sample(t)
	st, err := tab.SubTableView([]int{1, 3}, []string{"AIRLINE", "CANCELLED"})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 2 || st.NumCols() != 2 {
		t.Fatalf("sub-table dims = %dx%d", st.NumRows(), st.NumCols())
	}
	if st.Cell(0, "AIRLINE").Str != "B6" {
		t.Fatalf("sub-table cell = %v", st.Cell(0, "AIRLINE"))
	}
}

func TestHead(t *testing.T) {
	tab := sample(t)
	h := tab.Head(2)
	if h.NumRows() != 2 {
		t.Fatalf("Head(2) rows = %d", h.NumRows())
	}
	h = tab.Head(100)
	if h.NumRows() != 4 {
		t.Fatalf("Head(100) rows = %d", h.NumRows())
	}
}

func TestCloneIndependent(t *testing.T) {
	tab := sample(t)
	c := tab.Clone()
	c.Column("DISTANCE").Nums[0] = 999
	if tab.Column("DISTANCE").Nums[0] == 999 {
		t.Fatal("clone must not share numeric data")
	}
}

// sortAll returns every row index of tab ordered by SortRows.
func sortAll(tab *Table, name string, ascending bool) ([]int, error) {
	rows := make([]int, tab.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows, tab.SortRows(name, rows, ascending)
}

func TestSortIndices(t *testing.T) {
	tab := sample(t)
	asc, err := sortAll(tab, "DISTANCE", true)
	if err != nil {
		t.Fatal(err)
	}
	// 100, 550, 2000, NaN-last.
	want := []int{0, 3, 1, 2}
	for i := range want {
		if asc[i] != want[i] {
			t.Fatalf("asc = %v, want %v", asc, want)
		}
	}
	desc, _ := sortAll(tab, "DISTANCE", false)
	want = []int{1, 3, 0, 2} // NaN still last
	for i := range want {
		if desc[i] != want[i] {
			t.Fatalf("desc = %v, want %v", desc, want)
		}
	}
	if _, err := sortAll(tab, "nope", true); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestSortCategorical(t *testing.T) {
	tab := sample(t)
	asc, err := sortAll(tab, "AIRLINE", true)
	if err != nil {
		t.Fatal(err)
	}
	// AA, AA, B6, missing-last; stable keeps 0 before 2.
	want := []int{0, 2, 1, 3}
	for i := range want {
		if asc[i] != want[i] {
			t.Fatalf("asc = %v, want %v", asc, want)
		}
	}
}

func TestMissingCountDistinct(t *testing.T) {
	tab := sample(t)
	if got := tab.Column("DISTANCE").MissingCount(); got != 1 {
		t.Fatalf("MissingCount = %d", got)
	}
	if got := tab.Column("DISTANCE").Distinct(); got != 3 {
		t.Fatalf("Distinct = %d", got)
	}
	if got := tab.Column("AIRLINE").Distinct(); got != 2 {
		t.Fatalf("Distinct = %d", got)
	}
}

func TestRenderHighlight(t *testing.T) {
	tab := sample(t)
	out := tab.Render(func(r, ci int) bool { return r == 0 && ci == 0 })
	if !strings.Contains(out, "[100]") {
		t.Fatalf("highlight missing in:\n%s", out)
	}
	if !strings.Contains(out, "DISTANCE") || !strings.Contains(out, "NaN") {
		t.Fatalf("render missing header or NaN:\n%s", out)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Code("x")
	b := d.Code("y")
	if a == b {
		t.Fatal("distinct strings must get distinct codes")
	}
	if c := d.Code("x"); c != a {
		t.Fatal("re-interning must return the same code")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
	if s := d.String(a); s != "x" {
		t.Fatalf("String(%d) = %q", a, s)
	}
	if _, ok := d.Lookup("z"); ok {
		t.Fatal("Lookup of unknown string should fail")
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind should render with number")
	}
}

// Property: SelectRows of all indices is identity on values.
func TestPropSelectAllIdentity(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		tab := New("t")
		if err := tab.AddColumn(NewNumeric("a", vals)); err != nil {
			return false
		}
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		s := tab.SelectRows(idx)
		for i, v := range vals {
			got := s.Column("a").Nums[i]
			if math.IsNaN(v) != math.IsNaN(got) {
				return false
			}
			if !math.IsNaN(v) && got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Project is order-preserving and idempotent.
func TestPropProjectIdempotent(t *testing.T) {
	tab := sample(t)
	names := []string{"AIRLINE", "DISTANCE"}
	p1, err := tab.Project(names)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p1.Project(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range p2.ColumnNames() {
		if n != names[i] {
			t.Fatalf("names = %v", p2.ColumnNames())
		}
	}
}
