package core_test

import (
	"errors"
	"testing"

	"subtab/internal/core"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

func tinyOptions() core.Options {
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 4, Epochs: 1, Seed: 1}
	return opt
}

// TestPreprocessDegenerateTables pins the pipeline's behavior on the
// degenerate shapes a streaming feed can produce: pre-processing must
// succeed (or error cleanly), never panic, and selection must either
// produce a well-formed sub-table or a clear error.
func TestPreprocessDegenerateTables(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		// No columns: nothing to bin, embed or display, and no model file
		// could hold the result, so Preprocess refuses with a typed error.
		m, err := core.Preprocess(table.New("e"), tinyOptions())
		if !errors.Is(err, core.ErrNoColumns) || m != nil {
			t.Fatalf("Preprocess of a table without columns: model %v, err %v; want ErrNoColumns", m, err)
		}
	})
	t.Run("no-rows", func(t *testing.T) {
		tab := table.New("e")
		if err := tab.AddColumn(table.NewNumeric("n", nil)); err != nil {
			t.Fatal(err)
		}
		m, err := core.Preprocess(tab, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Select(3, 2, nil); !errors.Is(err, core.ErrNoRows) {
			t.Fatalf("select over a table without rows: err %v, want ErrNoRows", err)
		}
	})
	t.Run("single-row", func(t *testing.T) {
		tab := table.New("e")
		for _, c := range []*table.Column{
			table.NewNumeric("n", []float64{1}),
			table.NewCategorical("c", []string{"x"}),
		} {
			if err := tab.AddColumn(c); err != nil {
				t.Fatal(err)
			}
		}
		m, err := core.Preprocess(tab, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Select(5, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.SourceRows) != 1 || st.SourceRows[0] != 0 {
			t.Fatalf("single-row select picked %v", st.SourceRows)
		}
	})
	t.Run("single-column", func(t *testing.T) {
		tab := table.New("e")
		if err := tab.AddColumn(table.NewNumeric("n", []float64{1, 2, 3, 4, 5, 6, 7, 8})); err != nil {
			t.Fatal(err)
		}
		m, err := core.Preprocess(tab, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Select(3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Cols) != 1 || st.Cols[0] != "n" {
			t.Fatalf("single-column select chose %v", st.Cols)
		}
	})
}
