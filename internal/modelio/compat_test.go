package modelio

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

var (
	writeV7 = flag.Bool("write-v7", false, "write "+v7Fixture+" with this build's Save, which must write format version 7")
	writeV8 = flag.Bool("write-v8", false, "write the v8 fixtures with this build's Save, which must write format version 8")
)

// v7Fixture is a model file written by the last build whose Save wrote
// format version 7. It pins that every later build still loads it.
const v7Fixture = "testdata/model_v7.subtab"

// compatModel builds the model the v7 fixture holds: the mixed test table
// (missing values in both kinds, an "other" bin) pre-processed over 120
// rows, then 20 more rows appended incrementally, so the bin counts and
// the append lineage are non-trivial.
func compatModel(t *testing.T) *core.Model {
	t.Helper()
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 8, Epochs: 1, Seed: 3, Workers: 1}
	opt.ClusterSeed = 5
	m, err := core.Preprocess(testTable(t, 120), opt)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err = m.Append(testTable(t, 20), core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWriteV7Fixture re-records the v7 fixture. It runs only with
// -write-v7, on a build whose Save still writes version 7.
func TestWriteV7Fixture(t *testing.T) {
	if !*writeV7 {
		t.Skip("run with -write-v7 on a build that writes format version 7")
	}
	if Version != 7 {
		t.Fatalf("this build writes format version %d; the fixture must be written by a version 7 build", Version)
	}
	if err := SaveFile(v7Fixture, compatModel(t)); err != nil {
		t.Fatal(err)
	}
}

// The v8 fixtures are model files written by the last build whose Save
// wrote format version 8: a resident file (codes and cells embedded as
// store images) and a paged one (a schema husk referencing the .codes and
// .cols store files beside it).
const (
	v8ResidentFixture = "testdata/model_v8_resident.subtab"
	v8PagedFixture    = "testdata/model_v8_paged.subtab"
)

// v8Model builds the model the v8 fixtures hold: the mixed test table
// pre-processed over 280 rows, then 20 more rows appended incrementally.
func v8Model(t *testing.T) *core.Model {
	t.Helper()
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 8, Epochs: 1, Seed: 3, Workers: 1}
	opt.ClusterSeed = 5
	m, err := core.Preprocess(testTable(t, 280), opt)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err = m.Append(testTable(t, 20), core.AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWriteV8Fixtures re-records the v8 fixtures. It runs only with
// -write-v8, on a build whose Save still writes version 8.
func TestWriteV8Fixtures(t *testing.T) {
	if !*writeV8 {
		t.Skip("run with -write-v8 on a build that writes format version 8")
	}
	if Version != 8 {
		t.Fatalf("this build writes format version %d; the fixtures must be written by a version 8 build", Version)
	}
	if err := SaveFile(v8ResidentFixture, v8Model(t)); err != nil {
		t.Fatal(err)
	}
	m := v8Model(t)
	if err := m.PageOut([]string{v8PagedFixture + ".codes"}, []string{v8PagedFixture + ".cols"}, false, 128); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(v8PagedFixture, m); err != nil {
		t.Fatal(err)
	}
}

// TestLoadV7Fixture is the back-compat pin of format version 7: the
// checked-in file loads; its cells, codes, bin counts and lineage equal a
// fresh build of the same model; and re-saved in the current format and
// loaded again it selects byte-identically.
func TestLoadV7Fixture(t *testing.T) {
	raw, err := os.ReadFile(v7Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[8:]); v != 7 {
		t.Fatalf("fixture is format version %d, want 7", v)
	}
	old, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh := compatModel(t)
	assertSameTable(t, fresh.T, old.T)
	if !reflect.DeepEqual(fresh.B.Codes, old.B.Codes) {
		t.Fatal("v7 fixture's bin codes differ from a fresh build's")
	}
	if !reflect.DeepEqual(fresh.BinCountsData(), old.BinCountsData()) {
		t.Fatal("v7 fixture's bin counts differ from a fresh build's")
	}
	if fresh.AppendedSinceRebin() != old.AppendedSinceRebin() || old.AppendedSinceRebin() != 20 {
		t.Fatalf("append lineage: fixture %d, fresh build %d, want 20", old.AppendedSinceRebin(), fresh.AppendedSinceRebin())
	}

	resaved := saveBytes(t, old)
	if v := binary.LittleEndian.Uint16(resaved[8:]); v != Version {
		t.Fatalf("re-saved model is format version %d, want %d", v, Version)
	}
	again, err := Load(bytes.NewReader(resaved))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, old.T, again.T)
	for _, c := range []struct {
		k, l    int
		targets []string
	}{{4, 2, nil}, {6, 3, nil}, {5, 4, []string{"cat"}}} {
		want, err := old.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := again.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.SourceRows, got.SourceRows) || !reflect.DeepEqual(want.Cols, got.Cols) ||
			want.View.String() != got.View.String() {
			t.Fatalf("Select(%d,%d,%v) of the re-saved v7 model diverged", c.k, c.l, c.targets)
		}
	}
}

// TestLoadV8Fixtures is the back-compat pin of format version 8, in both
// of its shapes: the resident file (images embedded) and the paged one (a
// husk referencing .codes and .cols files beside it). Each loads in the
// residency it was saved in, restores the cells, codes, bin counts and
// lineage of a fresh build, selects byte-identically to it, and re-saves
// as one current-version file that needs nothing beside it.
func TestLoadV8Fixtures(t *testing.T) {
	fresh := v8Model(t)
	dir := t.TempDir()
	for _, c := range []struct {
		path  string
		paged bool
	}{{v8ResidentFixture, false}, {v8PagedFixture, true}} {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(raw[8:]); v != 8 {
			t.Fatalf("%s is format version %d, want 8", c.path, v)
		}
		old, err := LoadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if old.OutOfCore() != c.paged || old.CellsPaged() != c.paged {
			t.Fatalf("%s: loaded with codes paged %v, cells paged %v", c.path, old.OutOfCore(), old.CellsPaged())
		}
		assertSameSelections(t, fresh, old)
		if !reflect.DeepEqual(fresh.BinCountsData(), old.BinCountsData()) || old.AppendedSinceRebin() != 20 {
			t.Fatalf("%s: bin counts or append lineage differ from a fresh build's", c.path)
		}
		// Re-saved, the model is one file in the current format.
		path := filepath.Join(dir, filepath.Base(c.path))
		if err := SaveFile(path, old); err != nil {
			t.Fatal(err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s re-saved as %d files, want 1", c.path, len(entries))
		}
		resaved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		os.Remove(path)
		if v := binary.LittleEndian.Uint16(resaved[8:]); v != Version {
			t.Fatalf("re-saved model is format version %d, want %d", v, Version)
		}
		again, err := Load(bytes.NewReader(resaved))
		if err != nil {
			t.Fatal(err)
		}
		if again.CellsPaged() != c.paged {
			t.Fatalf("%s re-saved and loaded with cells paged %v", c.path, again.CellsPaged())
		}
		if !c.paged {
			assertSameTable(t, fresh.T, again.T)
			if !reflect.DeepEqual(fresh.B.Codes, again.B.Codes) {
				t.Fatalf("%s: bin codes differ from a fresh build's", c.path)
			}
		}
		assertSameSelections(t, fresh, again)
	}
}

// assertSameTable fails unless the two resident tables hold the same
// columns bit for bit: names, kinds, numeric float64 bits (any NaN matches
// any NaN), dictionaries in code order and categorical codes.
func assertSameTable(t *testing.T, want, got *table.Table) {
	t.Helper()
	if want.Name != got.Name || want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("table %q %dx%d, want %q %dx%d", got.Name, got.NumRows(), got.NumCols(), want.Name, want.NumRows(), want.NumCols())
	}
	for c, wc := range want.Columns() {
		gc := got.ColumnAt(c)
		if wc.Name != gc.Name || wc.Kind != gc.Kind {
			t.Fatalf("column %d is %q kind %d, want %q kind %d", c, gc.Name, gc.Kind, wc.Name, wc.Kind)
		}
		if wc.Kind == table.Categorical {
			if !reflect.DeepEqual(wc.Dict.Strings(), gc.Dict.Strings()) || !reflect.DeepEqual(wc.Cats, gc.Cats) {
				t.Fatalf("categorical column %q differs", wc.Name)
			}
			continue
		}
		for r, v := range wc.Nums {
			g := gc.Nums[r]
			if math.Float64bits(v) != math.Float64bits(g) && !(math.IsNaN(v) && math.IsNaN(g)) {
				t.Fatalf("column %q row %d: %v (bits %016x), want %v (bits %016x)", wc.Name, r, g, math.Float64bits(g), v, math.Float64bits(v))
			}
		}
	}
}

var writeV9 = flag.Bool("write-v9", false, "write the v9 fixtures and the standalone store fixtures with this build, whose stores must write store format version 2")

// The v9 fixtures are model files written by the last build whose code and
// column stores wrote store format version 2 (a byte or more per cell): a
// resident file and a paged one, both holding their codes and cells as
// images; and a standalone code store and column store of the same model.
// They pin that store images written before the sub-byte widths still
// load, select and re-save.
const (
	v9ResidentFixture = "testdata/model_v9_resident.subtab"
	v9PagedFixture    = "testdata/model_v9_paged.subtab"
	v2CodesFixture    = "testdata/store_v2.codes"
	v2CellsFixture    = "testdata/store_v2.cols"
	fixtureBlockRows  = 128
)

// TestWriteV9Fixtures re-records the v9 model fixtures and the standalone
// v2 store fixtures from v8Model's 300 rows. It runs only with -write-v9,
// on a build whose model files are version 9 and whose stores write
// version 2.
func TestWriteV9Fixtures(t *testing.T) {
	if !*writeV9 {
		t.Skip("run with -write-v9 on a build that writes model format 9 with version 2 stores")
	}
	if Version != 9 || codestore.Version != 2 || colstore.Version != 2 {
		t.Fatalf("this build writes model format %d with store formats %d and %d; the fixtures need 9, 2 and 2", Version, codestore.Version, colstore.Version)
	}
	if err := SaveFile(v9ResidentFixture, v8Model(t)); err != nil {
		t.Fatal(err)
	}
	m := v8Model(t)
	dir := t.TempDir()
	if err := m.PageOut([]string{filepath.Join(dir, "m.codes")}, []string{filepath.Join(dir, "m.cols")}, false, fixtureBlockRows); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(v9PagedFixture, m); err != nil {
		t.Fatal(err)
	}
	m = v8Model(t)
	if err := m.ExportCodeStore(v2CodesFixture, fixtureBlockRows); err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteTable(v2CellsFixture, m.T, fixtureBlockRows); err != nil {
		t.Fatal(err)
	}
}

// imageVersions returns the store format versions of the codes and cells
// images inside the model file raw.
func imageVersions(t *testing.T, raw []byte) (codes, cells uint16) {
	t.Helper()
	reg := blockfile.BytesRegion(raw)
	defer reg.Close()
	hd, err := readHeader(reg)
	if err != nil {
		t.Fatal(err)
	}
	if hd.codeSec.image == nil || hd.cellSec.image == nil {
		t.Fatal("model file holds no codes or cells image")
	}
	cs, err := codestore.OpenIn(reg, hd.codeSec.image.off, hd.codeSec.image.n)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	ls, err := colstore.OpenIn(reg, hd.cellSec.image.off, hd.cellSec.image.n)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	return cs.Version(), ls.Version()
}

// TestLoadV9Fixtures is the back-compat pin of store images written before
// the sub-byte widths: the resident and paged v9 files each load in the
// residency they were saved in, hold version 2 images, select
// byte-identically to a fresh build, and re-save with images in the stores'
// current versions, which load and select the same again.
func TestLoadV9Fixtures(t *testing.T) {
	fresh := v8Model(t)
	dir := t.TempDir()
	for _, c := range []struct {
		path  string
		paged bool
	}{{v9ResidentFixture, false}, {v9PagedFixture, true}} {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(raw[8:]); v != 9 {
			t.Fatalf("%s is format version %d, want 9", c.path, v)
		}
		if cv, lv := imageVersions(t, raw); cv != 2 || lv != 2 {
			t.Fatalf("%s holds store images of versions %d and %d, want 2 and 2", c.path, cv, lv)
		}
		old, err := LoadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if old.OutOfCore() != c.paged || old.CellsPaged() != c.paged {
			t.Fatalf("%s: loaded with codes paged %v, cells paged %v", c.path, old.OutOfCore(), old.CellsPaged())
		}
		assertSameSelections(t, fresh, old)
		if !reflect.DeepEqual(fresh.BinCountsData(), old.BinCountsData()) || old.AppendedSinceRebin() != 20 {
			t.Fatalf("%s: bin counts or append lineage differ from a fresh build's", c.path)
		}
		path := filepath.Join(dir, filepath.Base(c.path))
		if err := SaveFile(path, old); err != nil {
			t.Fatal(err)
		}
		resaved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cv, lv := imageVersions(t, resaved); cv != codestore.Version || lv != colstore.Version {
			t.Fatalf("%s re-saved with store images of versions %d and %d, want %d and %d", c.path, cv, lv, codestore.Version, colstore.Version)
		}
		again, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.CellsPaged() != c.paged {
			t.Fatalf("%s re-saved and loaded with cells paged %v", c.path, again.CellsPaged())
		}
		assertSameSelections(t, fresh, again)
	}
}

// TestLoadV2StoreFixtures pins the standalone version-2 stores: each opens
// and reads back the codes and cells of a fresh build, a model assembled
// over them selects byte-identically to it, and each re-writes in its
// store's current version with the same values.
func TestLoadV2StoreFixtures(t *testing.T) {
	fresh := v8Model(t)
	codes, err := codestore.Open(v2CodesFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer codes.Close()
	cells, err := colstore.Open(v2CellsFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer cells.Close()
	if codes.Version() != 2 || cells.Version() != 2 {
		t.Fatalf("store fixtures are versions %d and %d, want 2 and 2", codes.Version(), cells.Version())
	}
	if !reflect.DeepEqual(codes.Columns(), fresh.B.Codes) {
		t.Fatal("v2 code store's codes differ from a fresh build's")
	}
	tab, err := cells.MaterializeTable(fresh.T.Name)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, fresh.T, tab)
	b, err := binning.RestoreWithStore(tab, fresh.B.Cols, codes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Restore(tab, b, fresh.Emb, fresh.Opt, fresh.AffinityData())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelections(t, fresh, m)

	dir := t.TempDir()
	codesPath, cellsPath := filepath.Join(dir, "s.codes"), filepath.Join(dir, "s.cols")
	if err := codestore.WriteFile(codesPath, codes.Columns(), fixtureBlockRows); err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteTable(cellsPath, tab, fixtureBlockRows); err != nil {
		t.Fatal(err)
	}
	codes3, err := codestore.Open(codesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer codes3.Close()
	cells3, err := colstore.Open(cellsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cells3.Close()
	if codes3.Version() != codestore.Version || cells3.Version() != colstore.Version {
		t.Fatalf("re-written stores are versions %d and %d, want %d and %d", codes3.Version(), cells3.Version(), codestore.Version, colstore.Version)
	}
	if codes3.Size() > codes.Size() || cells3.Size() > cells.Size() {
		t.Fatalf("re-written stores take %d and %d bytes, the v2 fixtures %d and %d", codes3.Size(), cells3.Size(), codes.Size(), cells.Size())
	}
	if !reflect.DeepEqual(codes3.Columns(), fresh.B.Codes) {
		t.Fatal("re-written code store's codes differ from a fresh build's")
	}
	tab3, err := cells3.MaterializeTable(fresh.T.Name)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, fresh.T, tab3)
}
