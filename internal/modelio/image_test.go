package modelio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/datagen"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// assertEmbeds fails unless model holds image at an 8-byte-aligned offset.
func assertEmbeds(t *testing.T, model, image []byte) {
	t.Helper()
	if at := bytes.Index(model, image); at < 0 || at%imageAlign != 0 {
		t.Fatalf("model file holds the %d-byte store at offset %d, want an aligned image", len(image), at)
	}
}

// TestResidentModelEmbedsStoreImages writes a 20,000-row FL model the way
// the server builds one (CSV in, every pipeline seed 1) and pins the
// layout: the codes and cells images are byte for byte the files the
// paged stores write for the same model, the whole file is at most 0.90
// bytes per CSV byte, and a reload restores the cells and codes exactly.
func TestResidentModelEmbedsStoreImages(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-processes a 20,000-row table")
	}
	ds, err := datagen.ByName("FL", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := ds.T.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	csvBytes := csv.Len()
	tab, err := table.ReadCSV("FL", &csv)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Default()
	opt.Bins.Seed, opt.Corpus.Seed, opt.Embedding.Seed, opt.ClusterSeed = 1, 1, 1, 1
	m, err := core.Preprocess(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	model := saveBytes(t, m)

	dir := t.TempDir()
	for _, write := range []func(path string) error{
		func(path string) error { return m.ExportCodeStore(path, 0) },
		func(path string) error { return codestore.WriteFile(path, m.B.Source().(binning.MemCodes), 0) },
		func(path string) error { return colstore.WriteTable(path, m.T, 0) },
	} {
		path := filepath.Join(dir, "store")
		if err := write(path); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertEmbeds(t, model, want)
	}
	ratio := float64(len(model)) / float64(csvBytes)
	t.Logf("model file %d bytes for %d CSV bytes: %.3f", len(model), csvBytes, ratio)
	if ratio > 0.90 {
		t.Fatalf("model file is %.3f bytes per CSV byte, want at most 0.90", ratio)
	}

	loaded, err := Load(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	assertServes(t, m, loaded)
}

// assertServes fails unless loaded, a model served from its file's images,
// holds exactly the cells and bin codes of the resident model m.
func assertServes(t *testing.T, m, loaded *core.Model) {
	t.Helper()
	cells, ok := loaded.CellSource().(*colstore.Store)
	if !ok || !loaded.OutOfCore() {
		t.Fatalf("loaded model serves its cells from %T, paged %v; want its column store image", loaded.CellSource(), loaded.OutOfCore())
	}
	tab, err := cells.MaterializeTable(loaded.T.Name)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, m.T, tab)
	codes, err := loaded.B.MaterializedCodes()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([][]uint16(m.B.Source().(binning.MemCodes)), codes) {
		t.Fatal("bin codes diverged after reload")
	}
}

// TestCellsRoundTripExactly pins that the narrow cell encodings are exact:
// negative zero, integers past float32's mantissa, values that need all
// 64 bits, an all-missing column and a dictionary whose code order is not
// sorted all come back bit for bit, and missing cells come back missing.
func TestCellsRoundTripExactly(t *testing.T) {
	const rows = 90
	negZero := math.Copysign(0, -1)
	cols := map[string][]float64{}
	for _, name := range []string{"negzero", "bigint", "f64", "missing"} {
		cols[name] = make([]float64, rows)
	}
	cats := make([]string, rows)
	for r := 0; r < rows; r++ {
		cols["negzero"][r] = []float64{negZero, 1.5, -2, 0}[r%4]
		cols["bigint"][r] = float64(1<<40 + r*r)
		cols["f64"][r] = 1/3.0 + float64(r)*1e-12
		cols["missing"][r] = nan()
		cats[r] = []string{"zulu", "alpha", "", "mike"}[r%4]
	}
	cols["bigint"][7] = nan()
	tab, err := table.FromColumns("exact", []*table.Column{
		table.NewNumeric("negzero", cols["negzero"]),
		table.NewNumeric("bigint", cols["bigint"]),
		table.NewNumeric("f64", cols["f64"]),
		table.NewNumeric("missing", cols["missing"]),
		table.NewCategorical("cat", cats),
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 8, Epochs: 1, Seed: 3}
	m, err := core.Preprocess(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	assertServes(t, m, loaded)
	got, err := loaded.CellSource().GatherCells(0, []int{0})
	if err != nil || got[0] != "-0" {
		t.Fatalf("negative zero came back as %q (%v)", got, err)
	}
}
