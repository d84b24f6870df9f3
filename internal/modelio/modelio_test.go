package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subtab/internal/core"
	"subtab/internal/query"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// testTable builds a small mixed table with missing values in both kinds.
func testTable(t *testing.T, rows int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	nums := make([]float64, rows)
	wide := make([]float64, rows)
	cats := make([]string, rows)
	tags := make([]string, rows)
	for i := range nums {
		nums[i] = float64(rng.Intn(40))
		wide[i] = rng.NormFloat64()*10 + float64(rng.Intn(3))*25
		cats[i] = fmt.Sprintf("c%d", rng.Intn(4))
		tags[i] = fmt.Sprintf("t%d", rng.Intn(9)) // forces an "other" bin
		if rng.Intn(11) == 0 {
			cats[i] = "" // missing
		}
	}
	for i := 0; i < rows; i += 13 {
		nums[i] = nan()
	}
	tab, err := table.FromColumns("mixed", []*table.Column{
		table.NewNumeric("num", nums),
		table.NewNumeric("wide", wide),
		table.NewCategorical("cat", cats),
		table.NewCategorical("tag", tags),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func nan() float64 { return float64(0) / zero }

var zero float64 // foils constant folding of 0/0

func testModel(t *testing.T) *core.Model {
	t.Helper()
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 16, Epochs: 2, Seed: 3}
	opt.ClusterSeed = 5
	m, err := core.Preprocess(testTable(t, 400), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// saveBytes saves m in its current residency.
func saveBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m, ResidencyOf(m)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripSelections is the property test of the persistence contract:
// a loaded model produces byte-identical Select and SelectQuery output to
// the model that was saved, without re-running pre-processing.
func TestRoundTripSelections(t *testing.T) {
	m := testModel(t)
	loaded, err := Load(bytes.NewReader(saveBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}

	type sel struct {
		k, l    int
		targets []string
	}
	cases := []sel{{4, 2, nil}, {6, 3, nil}, {8, 4, []string{"cat"}}, {3, 4, []string{"num", "tag"}}}
	for _, c := range cases {
		want, err := m.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatalf("Select(%d,%d,%v): %v", c.k, c.l, c.targets, err)
		}
		got, err := loaded.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatalf("loaded Select(%d,%d,%v): %v", c.k, c.l, c.targets, err)
		}
		if !reflect.DeepEqual(want.SourceRows, got.SourceRows) || !reflect.DeepEqual(want.Cols, got.Cols) {
			t.Fatalf("Select(%d,%d,%v) diverged after reload:\nsaved  rows %v cols %v\nloaded rows %v cols %v",
				c.k, c.l, c.targets, want.SourceRows, want.Cols, got.SourceRows, got.Cols)
		}
		if want.View.String() != got.View.String() {
			t.Fatalf("Select(%d,%d,%v) view diverged after reload", c.k, c.l, c.targets)
		}
	}

	queries := []*query.Query{
		{Where: []query.Predicate{{Col: "num", Op: query.Geq, Num: 10}}},
		{Where: []query.Predicate{{Col: "cat", Op: query.Eq, Str: "c1"}}},
		{GroupBy: []string{"cat"}, Aggs: []query.Aggregate{{Func: query.Count}}},
		{OrderBy: "wide", Limit: 100},
	}
	for i, q := range queries {
		want, err := m.SelectQuery(q, 5, 3, nil)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got, err := loaded.SelectQuery(q, 5, 3, nil)
		if err != nil {
			t.Fatalf("query %d on loaded model: %v", i, err)
		}
		if want.View.String() != got.View.String() {
			t.Fatalf("query %d view diverged after reload:\nsaved:\n%sloaded:\n%s", i, want.View, got.View)
		}
	}
}

// TestRoundTripInternals checks that the derived state Select depends on is
// restored exactly, not recomputed approximately.
func TestRoundTripInternals(t *testing.T) {
	m := testModel(t)
	loaded, err := Load(bytes.NewReader(saveBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Opt, loaded.Opt) {
		t.Fatalf("options diverged:\nsaved  %+v\nloaded %+v", m.Opt, loaded.Opt)
	}
	if !reflect.DeepEqual(m.AffinityMatrix(), loaded.AffinityMatrix()) {
		t.Fatal("column-affinity matrix diverged after reload")
	}
	assertServes(t, m, loaded)
	for item := 0; item < m.B.NumItems(); item++ {
		if !reflect.DeepEqual(m.ItemVector(int32(item)), loaded.ItemVector(int32(item))) {
			t.Fatalf("item vector %d diverged", item)
		}
	}
	// A second save in the same residency must be byte-identical (the codec
	// is deterministic, and the images are copied verbatim).
	var again bytes.Buffer
	if err := Save(&again, loaded, ResidencyOf(m)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, m), again.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := testModel(t)
	path := filepath.Join(t.TempDir(), "model.subtab")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.T.NumRows() != m.T.NumRows() || loaded.T.NumCols() != m.T.NumCols() {
		t.Fatalf("loaded table is %dx%d, want %dx%d",
			loaded.T.NumRows(), loaded.T.NumCols(), m.T.NumRows(), m.T.NumCols())
	}
}

func TestLoadBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTAMODELFILE...."))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Load(bytes.NewReader(nil)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty input: err = %v, want ErrBadMagic", err)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	m := testModel(t)
	data := saveBytes(t, m)
	binary.LittleEndian.PutUint16(data[8:], Version+1)
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestLoadRetiredVersions pins that every format version but the current
// one is refused as a version, not misread and not reported as damage: a
// hand-built version 5 header; the first bytes of a current file relabelled
// with every older version; and the version 9 fixtures whose images are in
// store version 2, through Load and through LoadFile. TestLoadV7Fixture and
// TestLoadV8Fixtures refuse the older fixtures the same way.
func TestLoadRetiredVersions(t *testing.T) {
	v5 := binary.LittleEndian.AppendUint16([]byte("SUBTABMD"), 5)
	v5 = append(v5, make([]byte, 64)...)
	_, err := Load(bytes.NewReader(v5))
	wantRefused(t, "version 5 header", err)
	data := saveBytes(t, testModel(t))
	for v := uint16(0); v < Version; v++ {
		old := bytes.Clone(data)
		binary.LittleEndian.PutUint16(old[8:], v)
		_, err := Load(bytes.NewReader(old))
		wantRefused(t, fmt.Sprintf("version %d", v), err)
	}
	wantRetiredFixture(t, v9V2ResidentFixture, 9, 2)
	wantRetiredFixture(t, v9V2PagedFixture, 9, 2)
}

func TestLoadTruncated(t *testing.T) {
	data := saveBytes(t, testModel(t))
	for _, n := range []int{9, 16, 64, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

// TestLoadBitFlips flips bytes throughout the file and asserts every flip is
// rejected — structurally where decoding notices, by the CRC-32C otherwise.
func TestLoadBitFlips(t *testing.T) {
	data := saveBytes(t, testModel(t))
	stride := 131
	if testing.Short() {
		stride = 977
	}
	for pos := 10; pos < len(data); pos += stride {
		corrupt := bytes.Clone(data)
		corrupt[pos] ^= 0x40
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("flip at byte %d of %d loaded without error", pos, len(data))
		}
	}
}

func TestLoadTrailingGarbageChecksum(t *testing.T) {
	data := saveBytes(t, testModel(t))
	data[len(data)-1] ^= 0xff // corrupt the checksum itself
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestLoadFailureClosesStores is the regression test for a leak on late
// load failures: a store opened before a later step fails must be closed —
// its mapping gone — when LoadFile returns, not whenever a GC cleanup runs.
// The file is a paged model whose codes image is damaged after its cells
// image opened in the same mapping.
func TestLoadFailureClosesStores(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/maps"); err != nil {
		t.Skip("needs /proc/self/maps to see the process's mappings")
	}
	path := filepath.Join(t.TempDir(), "paged.subtab")
	raw := pagedBytes(t, testModel(t))
	// The codes image's end magic is the last 8 bytes before its cells
	// image: damage it, and the codes fail to open after the cells did.
	at := bytes.Index(raw, []byte("SUBTABCE"))
	raw[at] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("loading a damaged codes image: err = %v, want ErrCorrupt", err)
	}
	assertUnmapped(t, path)
}

// assertUnmapped fails if path is mapped into this process.
func assertUnmapped(t *testing.T, path string) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(maps, []byte(path)) {
		t.Fatalf("%s is still mapped", path)
	}
}
