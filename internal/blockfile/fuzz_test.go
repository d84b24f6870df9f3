package blockfile_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"subtab/internal/blockfile"
)

// fuzzSeeds derives the adversarial classes Open is documented to reject
// from one valid store file: truncations at the header, meta, data, index
// and footer boundaries, and single-byte flips inside each section.
func fuzzSeeds(k storeKind, raw []byte) [][]byte {
	dataStart := blockfile.HeaderSize + 4
	cuts := []int{0, 8, blockfile.HeaderSize - 1, blockfile.HeaderSize, dataStart, (dataStart + len(raw)) / 2, len(raw) - 13, len(raw) - 12, len(raw) - 8, len(raw) - 1}
	flips := []int{0, 9, 10, 14, 22, blockfile.HeaderSize, dataStart + 3, (dataStart + len(raw)) / 2, len(raw) - 16, len(raw) - 12, len(raw) - 1}
	seeds := [][]byte{raw}
	for _, cut := range cuts {
		if cut >= 0 && cut < len(raw) {
			seeds = append(seeds, raw[:cut])
		}
	}
	for _, pos := range flips {
		if pos >= 0 && pos < len(raw) {
			flipped := bytes.Clone(raw)
			flipped[pos] ^= 0x80
			seeds = append(seeds, flipped)
		}
	}
	return seeds
}

// FuzzOpen feeds arbitrary bytes to both stores' Open, as read and again
// with the footer checksum of a zero-row layout recomputed (so mutated
// headers and schemas of empty stores get past the footer check and reach
// the geometry and meta validation). Open must return a store or an error
// wrapping ErrTruncated/ErrCorrupt/ErrVersion and never panic — a whole
// header of the store's magic and a version but the current one always
// ErrVersion, as the version 1 and 2 golden stores are; whatever it accepts
// must survive Verify and a full typed read (ColumnBlock and Code over
// every block; Cell and MaterializeTable) without panicking and without
// allocating more than a small multiple of the file size. OpenIn over the
// same bytes in memory must give the same verdict, the same Checksum and
// the same typed reads. Seeds are the checked-in golden stores of both
// formats and all three versions, truncated and bit-flipped at every
// section boundary; the corpus
// under testdata/fuzz/FuzzOpen replays a sample of them, and the crafted
// headers of TestCraftedGeometryCostsNothing, on every plain `go test` run.
func FuzzOpen(f *testing.F) {
	for i, k := range storeKinds {
		stores, err := filepath.Glob(filepath.Join("testdata", "stores", k.stem+"_*"))
		if err != nil || len(stores) == 0 {
			f.Fatalf("no golden %s stores to seed from (%v)", k.name, err)
		}
		for _, store := range stores {
			raw, err := os.ReadFile(store)
			if err != nil {
				f.Fatal(err)
			}
			for _, seed := range fuzzSeeds(k, raw) {
				f.Add(byte(i), seed)
			}
		}
	}
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		k := storeKinds[int(mode&1)]
		if mode&2 != 0 {
			blockfile.NoMmap(t)
		}
		path := filepath.Join(t.TempDir(), "f.store")
		for _, variant := range [][]byte{data, reseal(data)} {
			if err := os.WriteFile(path, variant, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			n := allocatedBy(func() { _, err = k.read(path, nil, nil) })
			// Open and Verify fail with the sentinels; the typed accessors
			// of an accepted store may additionally report an
			// out-of-dictionary code, also under ErrCorrupt.
			if err != nil && !errors.Is(err, blockfile.ErrTruncated) && !errors.Is(err, blockfile.ErrCorrupt) && !errors.Is(err, blockfile.ErrVersion) {
				t.Fatalf("%s: error outside ErrTruncated/ErrCorrupt/ErrVersion: %v", k.name, err)
			}
			if k.retired(variant) && !errors.Is(err, blockfile.ErrVersion) {
				t.Fatalf("%s: a retired version's header: err = %v, want ErrVersion", k.name, err)
			}
			// A materialized table and its rendered cells cost a few bytes
			// per byte of page; a dictionary page's string headers the most,
			// 16 bytes per 4-byte empty string.
			if limit := uint64(32*len(variant) + 256<<10); n > limit {
				t.Fatalf("%s: reading a %d-byte file allocated %d bytes (limit %d)", k.name, len(variant), n, limit)
			}
			// The same bytes opened in memory: the same verdict, the same
			// checksum and the same typed reads.
			var fromFile, fromBytes strings.Builder
			fileSum, fileErr := k.read(path, nil, &fromFile)
			bytesSum, bytesErr := k.read("", variant, &fromBytes)
			if fmt.Sprint(fileErr) != fmt.Sprint(bytesErr) || fileSum != bytesSum || fromFile.String() != fromBytes.String() {
				t.Fatalf("%s: the file gave (%08x, %v), the same bytes in memory (%08x, %v)", k.name, fileSum, fileErr, bytesSum, bytesErr)
			}
		}
	})
}

// TestUpdateFuzzCorpus re-records testdata/fuzz/FuzzOpen under -update: for
// each format and version the 17-row golden store (one block + 1 row) whole,
// truncated and flipped — the version-3 stores hold every encoding and
// every cell width, the version 1 and 2 ones must be refused — plus the
// two crafted zero-row headers of each version-3 store.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !*update {
		t.Skip("run with -update to re-record the FuzzOpen corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpen")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	put := func(name string, mode int, data []byte) {
		entry := fmt.Sprintf("go test fuzz v1\nbyte(%s)\n[]byte(%s)\n", strconv.QuoteRune(rune(mode)), strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := func(k storeKind, infix string, rows int) []byte {
		matches, err := filepath.Glob(filepath.Join("testdata", "stores", fmt.Sprintf("%s_%s%02d.*", k.stem, infix, rows)))
		if err != nil || len(matches) != 1 {
			t.Fatalf("golden %d-row %s store: %v, %v", rows, k.name, matches, err)
		}
		raw, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for i, k := range storeKinds {
		for _, infix := range []string{"", "v2_", "v3_"} {
			raw := golden(k, infix, 17)
			for j, seed := range fuzzSeeds(k, raw) {
				// Alternate the access path so the corpus replays both.
				put(fmt.Sprintf("seed-%s-%s%02d", k.name, infix, j), i|(j%2)<<1, seed)
			}
		}
		empty := golden(k, "v3_", 0)
		huge := bytes.Clone(empty)
		copy(huge[22:], []byte{0xFF, 0xFF, 0xFF, 0x7F}) // blockRows = 2^31-1
		put("seed-"+k.name+"-huge-blockrows", i, reseal(huge))
		wide := bytes.Clone(empty)
		copy(wide[10:], []byte{0, 0, 0, 1}) // cols = 2^24
		put("seed-"+k.name+"-wide-cols", i, reseal(wide))
	}
}
