package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"

	"subtab/internal/blockfile"
	"subtab/internal/codestore"
	"subtab/internal/colstore"
	"subtab/internal/core"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// fuzzModelBytes builds a small but fully featured model file in residency
// r: numeric and categorical columns, missing values, an "other" bin, a
// trained embedding — every section of the format is non-trivial.
func fuzzModelBytes(tb testing.TB, r Residency) []byte {
	tb.Helper()
	nums := make([]float64, 60)
	cats := make([]string, 60)
	for i := range nums {
		nums[i] = float64(i % 9)
		cats[i] = []string{"a", "b", "c", "d", "e", "f", "g"}[i%7]
	}
	nums[5] = nan()
	cats[11] = ""
	tab, err := table.FromColumns("fz", []*table.Column{
		table.NewNumeric("num", nums),
		table.NewCategorical("cat", cats),
	})
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.Default()
	opt.Bins.MaxBins = 4
	opt.Embedding = word2vec.Options{Dim: 8, Epochs: 1, Seed: 1}
	m, err := core.Preprocess(tab, opt)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m, r); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad drives Load with corrupted model files: whatever the bytes,
// Load must return a model or an error — never panic, never hang, never
// allocate unboundedly off a poisoned length field. Each input runs as
// given and again with its trailing CRC-32C recomputed, so mutations reach
// the section validators (core.Restore, binning.Restore, the store images'
// checks) instead of all failing the checksum. A file whose header names
// any version but the current one must fail with ErrVersion. Seeds are a
// current-version resident file and a current-version paged file (sub-byte
// cells included), the checked-in current fixtures, and the retired
// version 7, 8 and 9 fixtures (the version 9 ones holding version 2
// images), which must be refused; each truncated at section boundaries,
// bit-flipped, version-skewed and poisoned, plus an empty/garbage stream,
// and the paged fixture with one byte flipped inside its first code page
// and, separately, inside its first cell page, which must fail with
// ErrCorrupt. Whenever Load returns a model, every page of both its images
// must pass Verify: a load checks them all before it serves any. The
// checked-in corpus under testdata/fuzz/FuzzLoad replays known-interesting
// inputs on every plain `go test` run.
func FuzzLoad(f *testing.F) {
	valids := [][]byte{fuzzModelBytes(f, Resident), fuzzModelBytes(f, Paged)}
	for _, fixture := range []string{v7Fixture, v8ResidentFixture, v9V2ResidentFixture, v9V2PagedFixture, v9ResidentFixture, v9PagedFixture} {
		raw, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		valids = append(valids, raw)
	}
	paged, err := os.ReadFile(v9PagedFixture)
	if err != nil {
		f.Fatal(err)
	}
	codePages, cellPages := pageOffsets(f, paged)
	for _, at := range []int64{codePages[0], cellPages[0]} {
		flipped := bytes.Clone(paged)
		flipped[at] ^= 0x01
		if _, err := Load(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("the paged fixture with a page flipped at byte %d: err = %v, want ErrCorrupt", at, err)
		}
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("SUBTABMD"))
	f.Add([]byte("not a model file at all"))
	for _, valid := range valids {
		f.Add(valid)
		// Truncations: header, early sections, just before the checksum.
		for _, n := range []int{4, 9, 16, 64, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
			if n >= 0 && n < len(valid) {
				f.Add(valid[:n])
			}
		}
		// Bit flips sprinkled through every section.
		for pos := 0; pos < len(valid); pos += len(valid)/16 + 1 {
			flipped := append([]byte(nil), valid...)
			flipped[pos] ^= 0x40
			f.Add(flipped)
		}
		// Version skew: future and zero versions in an otherwise valid file.
		for _, v := range []uint16{0, Version + 1, 999} {
			skewed := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(skewed[8:10], v)
			f.Add(skewed)
		}
		// Poisoned length field right after the header (row count).
		poisoned := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(poisoned[10:14], 0xFFFFFFF0)
		f.Add(poisoned)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, variant := range [][]byte{data, resealModel(data)} {
			var m *core.Model
			var err error
			n := allocatedBy(func() { m, err = Load(bytes.NewReader(variant)) })
			if len(variant) >= 10 && bytes.HasPrefix(variant, magic[:]) && binary.LittleEndian.Uint16(variant[8:]) != Version && !errors.Is(err, ErrVersion) {
				t.Fatalf("a version %d file: err = %v, want ErrVersion", binary.LittleEndian.Uint16(variant[8:]), err)
			}
			// A load costs a few bytes per byte of file plus fixed buffers
			// (the 64KiB reader, one 1MiB read chunk at most per section).
			if limit := uint64(64*len(variant) + 8<<20); n > limit {
				t.Fatalf("loading a %d-byte file allocated %d bytes (limit %d)", len(variant), n, limit)
			}
			if err != nil {
				if m != nil {
					t.Fatal("Load returned both a model and an error")
				}
				continue
			}
			// Anything Load accepts must be internally consistent enough to
			// serialize again and to answer the cheap structural queries the
			// serving layer makes.
			if m.T == nil || m.B == nil || m.Emb == nil {
				t.Fatal("Load accepted an incomplete model")
			}
			if err := m.B.Source().(*codestore.Store).Verify(); err != nil {
				t.Fatalf("Load accepted a damaged codes image: %v", err)
			}
			if err := m.CellSource().(*colstore.Store).Verify(); err != nil {
				t.Fatalf("Load accepted a damaged cells image: %v", err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, m, ResidencyOf(m)); err != nil {
				t.Fatalf("accepted model does not re-save: %v", err)
			}
		}
	})
}

// resealModel returns data with its trailing CRC-32C recomputed over what
// it covers, as Save would have written it: the header sections and
// padding. Data whose header does not decode comes back unchanged.
func resealModel(data []byte) []byte {
	out := bytes.Clone(data)
	if hd, err := readHeader(blockfile.BytesRegion(out)); err == nil && hd.crcAt+4 <= int64(len(out)) {
		binary.LittleEndian.PutUint32(out[hd.crcAt:], hd.crc)
	}
	return out
}

// allocatedBy returns the bytes fn allocates (cumulative, not live).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
