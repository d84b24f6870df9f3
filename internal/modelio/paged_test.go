package modelio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"subtab/internal/binning"
	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/query"
)

// pagedBytes saves m as a Paged file.
func pagedBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m, Paged); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameSelections fails unless got answers a few selects and a
// filtered select byte-identically to want.
func assertSameSelections(t *testing.T, want, got *core.Model) {
	t.Helper()
	for _, c := range []struct {
		k, l    int
		targets []string
	}{{4, 2, nil}, {6, 3, nil}, {5, 4, []string{"cat"}}} {
		w, err := want.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.SourceRows, g.SourceRows) || !reflect.DeepEqual(w.Cols, g.Cols) || w.View.String() != g.View.String() {
			t.Fatalf("Select(%d,%d,%v) diverged", c.k, c.l, c.targets)
		}
	}
	q := &query.Query{Where: []query.Predicate{{Col: "num", Op: query.Geq, Num: 10}}}
	w, err := want.SelectQuery(q, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.SelectQuery(q, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.View.String() != g.View.String() {
		t.Fatal("filtered select diverged")
	}
}

// TestPagedFileLayout pins the v9 paged file: one file whose codes and
// cells images are byte for byte the stores' files, at 8-byte-aligned
// offsets; it loads paged with both stores reading one mapping, selects as
// the model that was saved, re-saves byte-identically, and re-saved
// Resident equals the resident save of the same model.
func TestPagedFileLayout(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	var resident bytes.Buffer
	if err := Save(&resident, m, Resident); err != nil {
		t.Fatal(err)
	}
	raw := pagedBytes(t, m)
	for _, write := range []func(string) error{
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
		for _, file := range [][]byte{raw, resident.Bytes()} {
			if at := bytes.Index(file, want); at < 0 || at%imageAlign != 0 {
				t.Fatalf("the %d-byte store is at offset %d of the model file, want an aligned image", len(want), at)
			}
		}
	}

	path := filepath.Join(dir, "paged.subtab")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.OutOfCore() || loaded.CellSource() == nil || ResidencyOf(loaded) != Paged {
		t.Fatal("a Paged file loaded with resident codes or cells")
	}
	if maps, err := os.ReadFile("/proc/self/maps"); err == nil {
		if n := bytes.Count(maps, []byte(path)); n != 1 {
			t.Fatalf("the model file is mapped %d times, want once for both images", n)
		}
	}
	assertSameSelections(t, m, loaded)
	if again := saveBytes(t, loaded); !bytes.Equal(again, raw) {
		t.Fatal("a loaded Paged model re-saves differently")
	}
	var fromPaged bytes.Buffer
	if err := Save(&fromPaged, loaded, Resident); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromPaged.Bytes(), resident.Bytes()) {
		t.Fatal("a paged model saved Resident differs from the resident save")
	}
	// The model file may be replaced under a model mapped from it.
	if err := SaveFile(path, loaded); err != nil {
		t.Fatal(err)
	}
	assertSameSelections(t, m, loaded)
}

// TestLoadFileAccessPaths runs LoadFile over files saved in both
// residencies, freshly saved and as the checked-in fixtures, on both of
// blockfile's access paths: the mapping, and ReadAt through a section
// reader at each image's offset, which every non-unix build takes. Each
// loads, selects as its reference, and serves its stores by the access
// path in force; bit flips in a fresh file are rejected on both paths.
func TestLoadFileAccessPaths(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	files := map[string][]byte{"resident.subtab": saveBytes(t, m), "paged.subtab": pagedBytes(t, m)}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture := fixtureModel(t)
	cases := []struct {
		path string
		want *core.Model
	}{
		{filepath.Join(dir, "resident.subtab"), m},
		{filepath.Join(dir, "paged.subtab"), m},
		{v9ResidentFixture, fixture},
		{v9PagedFixture, fixture},
	}
	for _, mapped := range []bool{true, false} {
		t.Run(map[bool]string{true: "mmap", false: "readat"}[mapped], func(t *testing.T) {
			if !mapped {
				t.Cleanup(blockfile.DisableMapping())
			}
			for _, c := range cases {
				loaded, err := LoadFile(c.path)
				if err != nil {
					t.Fatalf("%s: %v", c.path, err)
				}
				cs := loaded.CellSource().(*colstore.Store)
				if cs.Mapped() != mapped || loaded.B.Source().(*codestore.Store).Mapped() != mapped {
					t.Fatalf("%s: stores mapped=%v, want %v", c.path, cs.Mapped(), mapped)
				}
				assertSameSelections(t, c.want, loaded)
			}
			stride := 131
			if testing.Short() {
				stride = 977
			}
			for name, raw := range files {
				path := filepath.Join(dir, "flipped-"+name)
				for pos := 10; pos < len(raw); pos += stride {
					corrupt := bytes.Clone(raw)
					corrupt[pos] ^= 0x40
					if err := os.WriteFile(path, corrupt, 0o644); err != nil {
						t.Fatal(err)
					}
					if _, err := LoadFile(path); err == nil {
						t.Fatalf("%s: flip at byte %d of %d loaded without error", name, pos, len(raw))
					}
				}
			}
		})
	}
}

// TestPagedModelReleasesItsMapping: once nothing references a paged model,
// the runtime cleanup of its one mapping unmaps the model file.
func TestPagedModelReleasesItsMapping(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/maps"); err != nil {
		t.Skip("needs /proc/self/maps to see the process's mappings")
	}
	path := filepath.Join(t.TempDir(), "paged.subtab")
	if err := os.WriteFile(path, pagedBytes(t, testModel(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	func() {
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Select(4, 2, nil); err != nil {
			t.Fatal(err)
		}
	}()
	awaitUnmapped(t, path)
}

// awaitUnmapped collects garbage until path is no longer mapped into this
// process, failing after a generous number of rounds.
func awaitUnmapped(t *testing.T, path string) {
	t.Helper()
	for range 100 {
		runtime.GC()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(maps, []byte(path)) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s is still mapped after its model became unreachable", path)
}

// TestLoadRejectsDamagedPages flips one byte inside every page of both
// images of a model file saved in each residency: LoadFile and Load refuse
// every such file with ErrCorrupt before serving it, on both access paths.
func TestLoadRejectsDamagedPages(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	for _, r := range []Residency{Resident, Paged} {
		var buf bytes.Buffer
		if err := Save(&buf, m, r); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		codePages, cellPages := pageOffsets(t, raw)
		if len(codePages) == 0 || len(cellPages) == 0 {
			t.Fatal("the model file holds no code or no cell pages")
		}
		path := filepath.Join(dir, "flipped.subtab")
		for _, mapped := range []bool{true, false} {
			restore := func() {}
			if !mapped {
				restore = blockfile.DisableMapping()
			}
			for _, at := range slices.Concat(codePages, cellPages) {
				corrupt := bytes.Clone(raw)
				corrupt[at] ^= 0x01
				if err := os.WriteFile(path, corrupt, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := LoadFile(path); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("residency %d, mapped %v: a flip at byte %d loaded: err = %v, want ErrCorrupt", r, mapped, at, err)
				}
				if _, err := Load(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("residency %d: a flip at byte %d loaded from bytes: err = %v, want ErrCorrupt", r, at, err)
				}
			}
			restore()
		}
	}
}

// pageOffsets returns the file offsets of the first byte of every data
// page of the codes image and of the cells image inside the model file raw.
func pageOffsets(tb testing.TB, raw []byte) (codes, cells []int64) {
	tb.Helper()
	reg := blockfile.BytesRegion(raw)
	hd, err := readHeader(reg)
	if err != nil {
		tb.Fatal(err)
	}
	codeStore, cellStore, err := openImages(reg, hd)
	if err != nil {
		tb.Fatal(err)
	}
	pages := func(f *blockfile.File, base int64) []int64 {
		var out []int64
		for blk := 0; blk < f.NumBlocks(); blk++ {
			for c := 0; c < f.NumCols(); c++ {
				if f.Off(c+1, blk) > f.Off(c, blk) {
					out = append(out, base+f.Off(c, blk))
				}
			}
		}
		return out
	}
	return pages(codeStore.File, hd.codeSec.image.off), pages(cellStore.File, hd.cellSec.image.off)
}
