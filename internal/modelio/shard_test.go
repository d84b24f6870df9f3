package modelio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/blockfile"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/shard"
	"subtab/internal/word2vec"
)

// shardedModel builds a model and pages it out to three code and three
// column shard files under dir.
func shardedModel(t *testing.T, dir string) *core.Model {
	t.Helper()
	opt := core.Default()
	opt.Embedding = word2vec.Options{Dim: 16, Epochs: 2, Seed: 3}
	opt.ClusterSeed = 5
	opt.Scale = core.ScaleOptions{Threshold: 1, SampleBudget: 150, BatchSize: 64, MaxIter: 40}
	m, err := core.Preprocess(testTable(t, 400), opt)
	if err != nil {
		t.Fatal(err)
	}
	var codes, cells []string
	for i := 0; i < 3; i++ {
		codes = append(codes, filepath.Join(dir, fmt.Sprintf("mixed.codes.%03d", i)))
		cells = append(cells, filepath.Join(dir, fmt.Sprintf("mixed.cols.%03d", i)))
	}
	// 61 rows/block: 400 rows split three ways is block-unaligned everywhere.
	if err := m.PageOut(codes, cells, true, 61); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShardedRoundTrip pins the v6 contract: a sharded model saves as a
// shard map, reloads against its directory, and selects byte-identically
// — both the exact path and the scaled scatter/gather path.
func TestShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := shardedModel(t, dir)
	path := filepath.Join(dir, "mixed.subtab")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := loaded.ShardSource()
	if src == nil {
		t.Fatal("loaded model is not shard-backed")
	}
	if !src.Complete() || src.NumShards() != 3 {
		t.Fatalf("loaded source: complete=%v shards=%d", src.Complete(), src.NumShards())
	}
	for _, c := range []struct {
		k, l    int
		targets []string
	}{{4, 2, nil}, {8, 4, []string{"cat"}}} {
		want, err := m.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Select(c.k, c.l, c.targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.SourceRows, got.SourceRows) || !reflect.DeepEqual(want.Cols, got.Cols) {
			t.Fatalf("Select(%d,%d,%v) diverged after sharded reload", c.k, c.l, c.targets)
		}
		if want.View.String() != got.View.String() {
			t.Fatalf("Select(%d,%d,%v) view diverged after sharded reload", c.k, c.l, c.targets)
		}
	}
}

// TestShardedLoadValidation: a missing shard file fails a normal load,
// loads as a partial coordinator model with AllowMissingShards (which then
// refuses to select without a sampler), and a corrupted shard file fails
// either way.
func TestShardedLoadValidation(t *testing.T) {
	dir := t.TempDir()
	m := shardedModel(t, dir)
	path := filepath.Join(dir, "mixed.subtab")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "mixed.codes.001")
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadFile(path); err == nil {
		t.Fatal("LoadFile succeeded with a missing shard file")
	}
	loaded, err := LoadFileWith(path, LoadOptions{AllowMissingShards: true})
	if err != nil {
		t.Fatalf("LoadFileWith(AllowMissingShards): %v", err)
	}
	src := loaded.ShardSource()
	if src == nil || src.Complete() {
		t.Fatal("partial load should yield an incomplete shard source")
	}
	if src.ShardAvailable(1) || !src.ShardAvailable(0) || !src.ShardAvailable(2) {
		t.Fatal("wrong shard availability after partial load")
	}
	if _, err := loaded.Select(4, 2, nil); err == nil || !strings.Contains(err.Error(), "sampler") {
		t.Fatalf("partial model Select = %v, want a no-sampler error", err)
	}

	// Corruption: write garbage over the shard file — the map's checksum
	// must reject it even with AllowMissingShards (missing != damaged).
	if err := os.WriteFile(victim, []byte("not a code store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFileWith(path, LoadOptions{AllowMissingShards: true}); err == nil {
		t.Fatal("load accepted a corrupted shard file")
	}
}

// TestShardedResave: a loaded sharded model round-trips again — the shard
// map survives a second save/load cycle unchanged — and is saved Resident:
// its shard files hold its codes and cells, whatever the residency byte.
func TestShardedResave(t *testing.T) {
	dir := t.TempDir()
	m := shardedModel(t, dir)
	path := filepath.Join(dir, "mixed.subtab")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, "again.subtab")
	if err := SaveFile(path2, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := LoadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.ShardSource().Map(), m.ShardSource().Map()) {
		t.Fatal("shard map changed across save/load cycles")
	}
	if ResidencyOf(m) != Resident || ResidencyOf(again) != Resident {
		t.Fatalf("a sharded model's residency is %d before and %d after, want Resident", ResidencyOf(m), ResidencyOf(again))
	}
	reg, err := blockfile.OpenRegion(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if hd, err := readHeader(reg); err != nil || hd.residency != Resident {
		t.Fatalf("a sharded model file records residency %v (%v), want Resident", hd, err)
	}
}

// TestShardMapRejectsBadEntries: a model file's shard section is the one
// reader of shard descriptors, and it refuses an entry with an empty or
// non-base file name, negative rows or no rows per block as corrupt.
func TestShardMapRejectsBadEntries(t *testing.T) {
	dir := t.TempDir()
	m := shardedModel(t, dir)
	raw := saveBytes(t, m)
	entry := func(d shard.Desc) []byte {
		var buf bytes.Buffer
		e := &encoder{w: &buf}
		e.str(d.File)
		e.u64(uint64(d.Rows))
		e.u32(uint32(d.BlockRows))
		e.u32(d.Checksum)
		return buf.Bytes()
	}
	good := m.ShardSource().Map().Shards[1]
	at := bytes.Index(raw, entry(good))
	if at < 0 || bytes.Count(raw, entry(good)) != 1 {
		t.Fatalf("shard entry 1 found %d times in the model file", bytes.Count(raw, entry(good)))
	}
	load := func(data []byte) error {
		path := filepath.Join(dir, "crafted.subtab")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		return err
	}
	if err := load(raw); err != nil {
		t.Fatalf("the uncrafted file fails to load: %v", err)
	}
	for _, bad := range []shard.Desc{
		{File: "", Rows: good.Rows, BlockRows: good.BlockRows, Checksum: good.Checksum},
		{File: "sub/dir.codes", Rows: good.Rows, BlockRows: good.BlockRows, Checksum: good.Checksum},
		{File: good.File, Rows: -1, BlockRows: good.BlockRows, Checksum: good.Checksum},
		{File: good.File, Rows: good.Rows, BlockRows: 0, Checksum: good.Checksum},
	} {
		crafted := slices.Concat(raw[:at], entry(bad), raw[at+len(entry(good)):])
		err := load(resealModel(crafted))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "shard entry 1") {
			t.Errorf("descriptor %+v: err = %v, want ErrCorrupt for shard entry 1", bad, err)
		}
	}
}

// TestMixedSectionVariantsRefused pins that a table's codes and cells page
// together on disk too: a model file whose codes section is a store image
// and whose cells section is a shard map, or the reverse, fails to load
// with ErrCorrupt in either residency. The files are what a splice of a
// paged and a sharded file would hold, built here by saving a sharded
// model after pointing one of its two sources elsewhere.
func TestMixedSectionVariantsRefused(t *testing.T) {
	var dir string
	for _, c := range []struct {
		name  string
		remix func(m *core.Model) error
	}{
		{"codes image, cells shards", func(m *core.Model) error {
			codes, err := m.B.MaterializedCodes()
			if err != nil {
				return err
			}
			return m.B.AttachStore(binning.MemCodes(codes))
		}},
		{"codes shards, cells image", func(m *core.Model) error {
			t, err := m.CellSource().(*shard.Cells).MaterializeTable(m.T.Name)
			if err != nil {
				return err
			}
			path := filepath.Join(dir, "whole.cols")
			if err := colstore.WriteTable(path, t, 0); err != nil {
				return err
			}
			st, err := colstore.Open(path)
			if err != nil {
				return err
			}
			return m.AttachColumnStore(st)
		}},
	} {
		dir = t.TempDir()
		m := shardedModel(t, dir)
		if err := c.remix(m); err != nil {
			t.Fatal(err)
		}
		for _, r := range []Residency{Resident, Paged} {
			var buf bytes.Buffer
			if err := Save(&buf, m, r); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "mixed.subtab")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadFile(path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "different variants") {
				t.Errorf("%s, residency %d: load = %v, want ErrCorrupt", c.name, r, err)
			}
		}
	}
}
