package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

var writeV9 = flag.Bool("write-v9", false, "re-record the current model file fixtures with this build's Save")

// The current fixtures are model files in the format this build writes —
// version 9 holding version 3 store images — of fixtureModel: a resident
// file and a paged one. They pin that a file written before a change still
// loads and selects after it.
const (
	v9ResidentFixture = "testdata/model_v9_store_v3_resident.subtab"
	v9PagedFixture    = "testdata/model_v9_store_v3_paged.subtab"
	fixtureBlockRows  = 128
)

// The retired fixtures are files earlier builds wrote in formats this build
// no longer reads: model files of versions 7 and 8, version 9 model files
// whose codes and cells images are in store version 2, and standalone
// version 2 code and column stores. They pin that each is refused as a
// version, never misread and never reported as damage.
const (
	v7Fixture           = "testdata/model_v7.subtab"
	v8ResidentFixture   = "testdata/model_v8_resident.subtab"
	v8PagedFixture      = "testdata/model_v8_paged.subtab"
	v9V2ResidentFixture = "testdata/model_v9_store_v2_resident.subtab"
	v9V2PagedFixture    = "testdata/model_v9_store_v2_paged.subtab"
	v2CodesFixture      = "testdata/store_v2.codes"
	v2CellsFixture      = "testdata/store_v2.cols"
)

// fixtureModel builds the model the fixtures hold: the mixed test table
// (missing values in both kinds, an "other" bin) pre-processed over 280
// rows, then 20 more rows appended incrementally, so the bin counts and the
// append lineage are non-trivial.
func fixtureModel(t *testing.T) *core.Model {
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

// TestWriteV9Fixtures re-records the current fixtures. It runs only with
// -write-v9.
func TestWriteV9Fixtures(t *testing.T) {
	if !*writeV9 {
		t.Skip("run with -write-v9 to re-record the current model file fixtures")
	}
	if err := SaveFile(v9ResidentFixture, fixtureModel(t)); err != nil {
		t.Fatal(err)
	}
	m := fixtureModel(t)
	dir := t.TempDir()
	if err := m.PageOut([]string{filepath.Join(dir, "m.codes")}, []string{filepath.Join(dir, "m.cols")}, false, fixtureBlockRows); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(v9PagedFixture, m); err != nil {
		t.Fatal(err)
	}
}

// imageVersions returns the store format versions recorded in the headers
// of the codes and cells images inside the model file raw.
func imageVersions(t *testing.T, raw []byte) (codes, cells uint16) {
	t.Helper()
	hd, err := readHeader(blockfile.BytesRegion(raw))
	if err != nil {
		t.Fatal(err)
	}
	if hd.codeSec.image == nil || hd.cellSec.image == nil {
		t.Fatal("model file holds no codes or cells image")
	}
	return binary.LittleEndian.Uint16(raw[hd.codeSec.image.off+8:]), binary.LittleEndian.Uint16(raw[hd.cellSec.image.off+8:])
}

// TestLoadV9Fixtures pins the current format: the resident and paged
// fixtures hold version 3 images, each loads served from those images and
// selects byte-identically to a fresh build, and re-saved in the residency
// it records it is the fixture's bytes again.
func TestLoadV9Fixtures(t *testing.T) {
	fresh := fixtureModel(t)
	for _, c := range []struct {
		path  string
		paged bool
	}{{v9ResidentFixture, false}, {v9PagedFixture, true}} {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(raw[8:]); v != Version {
			t.Fatalf("%s is format version %d, want %d", c.path, v, Version)
		}
		if cv, lv := imageVersions(t, raw); cv != codestore.Version || lv != colstore.Version {
			t.Fatalf("%s holds store images of versions %d and %d, want %d and %d", c.path, cv, lv, codestore.Version, colstore.Version)
		}
		m, err := LoadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		assertServes(t, fresh, m)
		assertSameSelections(t, fresh, m)
		if !reflect.DeepEqual(fresh.BinCountsData(), m.BinCountsData()) || m.AppendedSinceRebin() != 20 {
			t.Fatalf("%s: bin counts or append lineage differ from a fresh build's", c.path)
		}
		residency := Resident
		if c.paged {
			residency = Paged
		}
		var buf bytes.Buffer
		if err := Save(&buf, m, residency); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("%s re-saved as %d other bytes", c.path, buf.Len())
		}
	}
}

// wantRefused fails unless err refuses a file as a version: it wraps
// ErrVersion and not ErrCorrupt.
func wantRefused(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: err = %v, want ErrVersion and not ErrCorrupt", what, err)
	}
}

// wantRetiredFixture fails unless the model file at path records format
// version — and, when image is not 0, holds codes and cells images of store
// version image — and Load and LoadFile both refuse it as a version.
func wantRetiredFixture(t *testing.T, path string, version, image uint16) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[8:]); v != version {
		t.Fatalf("%s is format version %d, want %d", path, v, version)
	}
	if image != 0 {
		if cv, lv := imageVersions(t, raw); cv != image || lv != image {
			t.Fatalf("%s holds store images of versions %d and %d, want %d", path, cv, lv, image)
		}
	}
	_, err = Load(bytes.NewReader(raw))
	wantRefused(t, path, err)
	_, err = LoadFile(path)
	wantRefused(t, path, err)
}

// TestLoadV7Fixture pins that the checked-in version 7 model file, which
// earlier builds loaded, is now refused as a version by Load and LoadFile.
func TestLoadV7Fixture(t *testing.T) {
	wantRetiredFixture(t, v7Fixture, 7, 0)
}

// TestLoadV8Fixtures pins that both checked-in version 8 model files, the
// resident one and the paged husk, are now refused as versions by Load and
// LoadFile.
func TestLoadV8Fixtures(t *testing.T) {
	wantRetiredFixture(t, v8ResidentFixture, 8, 0)
	wantRetiredFixture(t, v8PagedFixture, 8, 0)
}

// TestLoadV2StoreFixtures pins that the standalone version 2 stores are
// refused as versions by Open and by OpenIn over the same bytes.
func TestLoadV2StoreFixtures(t *testing.T) {
	for _, c := range []struct {
		path   string
		open   func(string) error
		openIn func(*blockfile.Region, int64, int64) error
	}{
		{
			v2CodesFixture,
			func(p string) error { _, err := codestore.Open(p); return err },
			func(r *blockfile.Region, off, n int64) error { _, err := codestore.OpenIn(r, off, n); return err },
		},
		{
			v2CellsFixture,
			func(p string) error { _, err := colstore.Open(p); return err },
			func(r *blockfile.Region, off, n int64) error { _, err := colstore.OpenIn(r, off, n); return err },
		},
	} {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(raw[8:]); v != 2 {
			t.Fatalf("%s is store version %d, want 2", c.path, v)
		}
		for _, err := range []error{c.open(c.path), c.openIn(blockfile.BytesRegion(raw), 0, int64(len(raw)))} {
			if !errors.Is(err, blockfile.ErrVersion) || errors.Is(err, blockfile.ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrVersion and not ErrCorrupt", c.path, err)
			}
		}
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
