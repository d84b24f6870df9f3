package shard

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
)

// memSource is an in-memory CodeSource with a configurable block size, for
// exercising the virtual-block assembly without files.
type memSource struct {
	codes     [][]uint16 // [col][row]
	blockRows int
}

func (s *memSource) NumRows() int {
	if len(s.codes) == 0 {
		return 0
	}
	return len(s.codes[0])
}
func (s *memSource) NumCols() int   { return len(s.codes) }
func (s *memSource) BlockRows() int { return s.blockRows }
func (s *memSource) NumBlocks() int {
	return (s.NumRows() + s.blockRows - 1) / s.blockRows
}
func (s *memSource) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	lo := blk * s.blockRows
	hi := min(lo+s.blockRows, s.NumRows())
	return s.codes[c][lo:hi]
}
func (s *memSource) Code(c, r int) uint16 { return s.codes[c][r] }
func (s *memSource) GatherCodes(c int, rows []int, dst []uint16) {
	for i, r := range rows {
		dst[i] = s.codes[c][r]
	}
}

func randCodes(rng *rand.Rand, cols, rows, bins int) [][]uint16 {
	codes := make([][]uint16, cols)
	for c := range codes {
		codes[c] = make([]uint16, rows)
		for r := range codes[c] {
			codes[c][r] = uint16(rng.Intn(bins))
		}
	}
	return codes
}

func TestMapRoundTrip(t *testing.T) {
	m := &Map{Shards: []Desc{
		{File: "t.codes.000", Rows: 100, BlockRows: 64, Checksum: 0xdeadbeef},
		{File: "t.codes.001", Rows: 0, BlockRows: 64, Checksum: 0},
		{File: "t.codes.002", Rows: 41, BlockRows: 64, Checksum: 7},
	}}
	if m.TotalRows() != 141 {
		t.Fatalf("TotalRows = %d, want 141", m.TotalRows())
	}
	if want := []int{0, 100, 100, 141}; !reflect.DeepEqual(m.Starts(), want) {
		t.Fatalf("Starts = %v, want %v", m.Starts(), want)
	}
}

func TestSplitSinkGeometry(t *testing.T) {
	// 100 rows, 3 cols, cuts at 0/33/33/90/100: an empty shard and
	// block-unaligned boundaries (blockRows 16).
	const rows, cols = 100, 3
	rng := rand.New(rand.NewSource(1))
	codes := randCodes(rng, cols, rows, 40)

	dir := t.TempDir()
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = filepath.Join(dir, "t.codes.00"+string(rune('0'+i)))
	}
	cuts := []int{0, 33, 33, 90, rows}
	sink, err := NewSplitSink(paths, cuts, []int{40, 40, 40}, 16)
	if err != nil {
		t.Fatalf("NewSplitSink: %v", err)
	}
	// Feed in awkward chunk sizes that straddle the cuts.
	chunk := make([][]uint16, cols)
	for off := 0; off < rows; {
		n := min(29, rows-off)
		for c := range chunk {
			chunk[c] = codes[c][off : off+n]
		}
		if err := sink.AppendColumns(chunk); err != nil {
			t.Fatalf("AppendColumns at %d: %v", off, err)
		}
		off += n
	}
	m, err := sink.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	wantRows := []int{33, 0, 57, 10}
	if len(m.Shards) != 4 {
		t.Fatalf("map has %d shards, want 4", len(m.Shards))
	}
	for i, d := range m.Shards {
		if d.Rows != wantRows[i] {
			t.Fatalf("shard %d has %d rows, want %d", i, d.Rows, wantRows[i])
		}
		if d.File != filepath.Base(paths[i]) {
			t.Fatalf("shard %d file %q, want %q", i, d.File, filepath.Base(paths[i]))
		}
	}

	src, err := Open(dir, m, cols, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	if !src.Complete() {
		t.Fatal("source should be complete")
	}
	if src.NumRows() != rows || src.NumCols() != cols {
		t.Fatalf("source is %dx%d, want %dx%d", src.NumRows(), src.NumCols(), rows, cols)
	}
	// Every cell must read back identically, via Code and via ColumnBlock.
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if got := src.Code(c, r); got != codes[c][r] {
				t.Fatalf("Code(%d, %d) = %d, want %d", c, r, got, codes[c][r])
			}
		}
		var scratch []uint16
		r := 0
		for blk := 0; blk < src.NumBlocks(); blk++ {
			got := src.ColumnBlock(c, blk, scratch)
			scratch = got
			for _, v := range got {
				if v != codes[c][r] {
					t.Fatalf("col %d row %d via block %d: got %d, want %d", c, r, blk, v, codes[c][r])
				}
				r++
			}
		}
		if r != rows {
			t.Fatalf("col %d blocks covered %d rows, want %d", c, r, rows)
		}
	}

}

func TestSplitSinkZeroRows(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "z.codes.000"), filepath.Join(dir, "z.codes.001")}
	sink, err := NewSplitSink(paths, []int{0, 0, 0}, []int{1, 1}, 8)
	if err != nil {
		t.Fatalf("NewSplitSink: %v", err)
	}
	if err := sink.AppendColumns([][]uint16{nil, nil}); err != nil {
		t.Fatalf("AppendColumns: %v", err)
	}
	m, err := sink.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	src, err := Open(dir, m, 2, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	if src.NumRows() != 0 || src.NumCols() != 2 || src.NumBlocks() != 0 {
		t.Fatalf("zero-row source: %d rows, %d cols, %d blocks", src.NumRows(), src.NumCols(), src.NumBlocks())
	}
}

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.codes.000")
	sink, err := NewSplitSink([]string{path}, []int{0, 10}, []int{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	chunk := [][]uint16{make([]uint16, 10), make([]uint16, 10)}
	if err := sink.AppendColumns(chunk); err != nil {
		t.Fatal(err)
	}
	m, err := sink.Close()
	if err != nil {
		t.Fatal(err)
	}

	bad := &Map{Shards: []Desc{m.Shards[0]}}
	bad.Shards[0].Checksum ^= 1
	if _, err := Open(dir, bad, 2, false); err == nil {
		t.Error("Open accepted a checksum mismatch")
	}
	bad = &Map{Shards: []Desc{m.Shards[0]}}
	bad.Shards[0].Rows = 11
	if _, err := Open(dir, bad, 2, false); err == nil {
		t.Error("Open accepted a row-count mismatch")
	}
	if _, err := Open(dir, m, 3, false); err == nil {
		t.Error("Open accepted a column-count mismatch")
	}

	missing := &Map{Shards: []Desc{m.Shards[0], {File: "gone.codes", Rows: 5, BlockRows: 4, Checksum: 1}}}
	if _, err := Open(dir, missing, 2, false); err == nil {
		t.Error("Open without allowMissing accepted a missing shard file")
	}
	src, err := Open(dir, missing, 2, true)
	if err != nil {
		t.Fatalf("Open with allowMissing: %v", err)
	}
	defer src.Close()
	if src.Complete() {
		t.Error("partial source claims to be complete")
	}
	if !src.ShardAvailable(0) || src.ShardAvailable(1) {
		t.Error("shard availability wrong")
	}
	// The page check reads through the file's handle; the store kept
	// serves the file's mapping.
	if st := src.srcs[0].(*codestore.Store); runtime.GOOS == "linux" && !st.Mapped() {
		t.Error("an opened shard is not served from its mapping")
	}
	// Blocks fully inside shard 0 are available; the boundary block is not.
	if !src.BlockAvailable(0) {
		t.Error("block 0 should be available (rows 0-3 are local)")
	}
	if src.BlockAvailable(2) {
		t.Error("block 2 spans the missing shard and should be unavailable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Code on a missing shard did not panic")
			}
		}()
		src.Code(0, 12)
	}()
}

func TestSourceVirtualBlocks(t *testing.T) {
	// Shards with heterogeneous internal block sizes still present uniform
	// virtual blocks (the first shard's granularity).
	rng := rand.New(rand.NewSource(7))
	codes := randCodes(rng, 2, 57, 100)
	split := []int{0, 13, 13, 40, 57}
	var srcs []binning.CodeSource
	var counts []int
	for i := 0; i+1 < len(split); i++ {
		lo, hi := split[i], split[i+1]
		sub := make([][]uint16, 2)
		for c := range sub {
			sub[c] = codes[c][lo:hi]
		}
		srcs = append(srcs, &memSource{codes: sub, blockRows: 5 + i})
		counts = append(counts, hi-lo)
	}
	src, err := NewSource(srcs, counts, 2)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	if src.BlockRows() != 5 {
		t.Fatalf("virtual BlockRows = %d, want 5", src.BlockRows())
	}
	for c := 0; c < 2; c++ {
		r := 0
		var scratch []uint16
		for blk := 0; blk < src.NumBlocks(); blk++ {
			got := src.ColumnBlock(c, blk, scratch)
			scratch = got
			for _, v := range got {
				if v != codes[c][r] {
					t.Fatalf("col %d row %d: got %d, want %d", c, r, v, codes[c][r])
				}
				r++
			}
		}
		if r != 57 {
			t.Fatalf("col %d covered %d rows, want 57", c, r)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	req := &SampleRequest{Checksum: 0xabad1dea, Seed: -42, Budget: 256, Cols: []int{0, 3, 7}}
	gotReq, err := UnmarshalSampleRequest(req.Marshal())
	if err != nil {
		t.Fatalf("request round trip: %v", err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("request mismatch:\n got %+v\nwant %+v", gotReq, req)
	}

	resp := &SampleResponse{
		Summary: Summary{
			Strata: []StratumMin{{Row: -1}, {Row: 5, Hash: 99}, {Row: 1 << 40, Hash: ^uint64(0)}},
			Cand:   []HashRow{{Hash: 3, Row: 12}, {Hash: 3, Row: 14}},
		},
		Rows:  []int64{5, 12, 14, 1 << 40},
		Codes: [][]uint16{{1, 2, 3, 4}, {9, 8, 7, 6}},
	}
	gotResp, err := UnmarshalSampleResponse(resp.Marshal())
	if err != nil {
		t.Fatalf("response round trip: %v", err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("response mismatch:\n got %+v\nwant %+v", gotResp, resp)
	}

	// Empty response (a zero-row shard) round-trips too, modulo nil vs
	// empty slices.
	empty := &SampleResponse{Summary: Summary{Strata: []StratumMin{}}}
	gotEmpty, err := UnmarshalSampleResponse(empty.Marshal())
	if err != nil {
		t.Fatalf("empty response round trip: %v", err)
	}
	if len(gotEmpty.Summary.Strata) != 0 || len(gotEmpty.Rows) != 0 {
		t.Fatalf("empty response decoded as %+v", gotEmpty)
	}
}

func TestWireCorruption(t *testing.T) {
	req := &SampleRequest{Checksum: 1, Seed: 2, Budget: 3, Cols: []int{4}}
	raw := req.Marshal()
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"bit flip":  func(b []byte) []byte { b[9] ^= 1; return b },
		"magic":     func(b []byte) []byte { b[0] = 'x'; return b },
		"short":     func(b []byte) []byte { return b[:5] },
	} {
		buf := mutate(append([]byte(nil), raw...))
		if _, err := UnmarshalSampleRequest(buf); err == nil {
			t.Errorf("%s: request decode accepted corrupt frame", name)
		}
	}
	resp := &SampleResponse{Summary: Summary{Strata: []StratumMin{{Row: 1, Hash: 2}}}}
	rraw := resp.Marshal()
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"bit flip":  func(b []byte) []byte { b[12] ^= 8; return b },
		"swapped":   func(b []byte) []byte { return append(b[:0:0], req.Marshal()...) },
	} {
		buf := mutate(append([]byte(nil), rraw...))
		if _, err := UnmarshalSampleResponse(buf); err == nil {
			t.Errorf("%s: response decode accepted corrupt frame", name)
		}
	}
}

// TestCraftedCountsCostNothing is the regression test for decoders that
// sized their slices from a frame's declared counts before checking that
// the frame held the elements: a 34-byte sample request declaring 2^24
// columns allocated 128 MiB, a 38-byte one declaring 2^16 predicates 3 MiB,
// and a 34-byte zero-row sample response declaring 2^24 columns allocated
// 384 MiB and decoded without error. Each crafted frame (valid magic,
// version and checksum) must now fail and allocate under 32 MiB.
func TestCraftedCountsCostNothing(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	frame := func(magic [4]byte, fields ...[]byte) []byte {
		buf := binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), wireVersion)
		for _, f := range fields {
			buf = append(buf, f...)
		}
		return appendCRC(buf)
	}
	head := make([]byte, 4+8+8) // checksum, seed, budget
	for _, tc := range []struct {
		name   string
		raw    []byte
		decode func([]byte) error
	}{
		{"request columns", frame(reqMagic, head, u32(nil, 1<<24)), func(b []byte) error { _, err := UnmarshalSampleRequest(b); return err }},
		{"request predicates", frame(reqMagic, head, u32(nil, 0), u32(nil, 1<<16)), func(b []byte) error { _, err := UnmarshalSampleRequest(b); return err }},
		{"zero-row response columns", frame(respMagic, u32(nil, 0), u32(nil, 0), u32(nil, 0), u32(nil, 1<<24), make([]byte, 8)), func(b []byte) error { _, err := UnmarshalSampleResponse(b); return err }},
		{"cells request columns", frame(cellsReqMagic, u32(nil, 0), u32(nil, 1<<24)), func(b []byte) error { _, err := UnmarshalCellsRequest(b); return err }},
		{"cells response columns", frame(cellsRespMagic, u32(nil, 1<<24)), func(b []byte) error { _, err := UnmarshalCellsResponse(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.raw)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%d bytes): decoded with %v, want ErrCorrupt", tc.name, len(tc.raw), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 32<<20 {
			t.Errorf("%s (%d bytes): allocated %d MiB", tc.name, len(tc.raw), n>>20)
		}
	}
}

func TestMergeStrataAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() []StratumMin {
		s := EmptyStrata(16)
		for i := range s {
			if rng.Intn(3) == 0 {
				continue // leave empty
			}
			s[i] = StratumMin{Row: int64(rng.Intn(1000)), Hash: uint64(rng.Intn(8))} // small hash domain forces ties
		}
		return s
	}
	for trial := 0; trial < 50; trial++ {
		a, b, c := mk(), mk(), mk()
		// (a ⊕ b) ⊕ c
		left := append([]StratumMin(nil), a...)
		MergeStrata(left, b)
		MergeStrata(left, c)
		// a ⊕ (b ⊕ c)
		bc := append([]StratumMin(nil), b...)
		MergeStrata(bc, c)
		right := append([]StratumMin(nil), a...)
		MergeStrata(right, bc)
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("trial %d: merge not associative\n left %v\nright %v", trial, left, right)
		}
		// Commutative too.
		ba := append([]StratumMin(nil), b...)
		MergeStrata(ba, a)
		ab := append([]StratumMin(nil), a...)
		MergeStrata(ab, b)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("trial %d: merge not commutative", trial)
		}
	}
}

func TestCandidateRows(t *testing.T) {
	s := Summary{
		Strata: []StratumMin{{Row: 7, Hash: 1}, {Row: -1}, {Row: 2, Hash: 3}},
		Cand:   []HashRow{{Hash: 1, Row: 7}, {Hash: 2, Row: 9}},
	}
	if got, want := s.CandidateRows(), []int64{2, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CandidateRows = %v, want %v", got, want)
	}
}

func TestSparseSource(t *testing.T) {
	src, err := NewSparseSource(100, 2, []int64{5, 50, 99}, [][]uint16{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatalf("NewSparseSource: %v", err)
	}
	if src.NumRows() != 100 || src.NumCols() != 2 || src.BlockRows() != 1 || src.NumBlocks() != 100 {
		t.Fatal("sparse source geometry wrong")
	}
	if !src.Covers(50) || src.Covers(51) {
		t.Fatal("Covers wrong")
	}
	if src.Code(1, 50) != 5 {
		t.Fatalf("Code(1, 50) = %d, want 5", src.Code(1, 50))
	}
	if got := src.ColumnBlock(0, 99, nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("ColumnBlock(0, 99) = %v, want [3]", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Code on an uncovered row did not panic")
			}
		}()
		src.Code(0, 51)
	}()
	if _, err := NewSparseSource(10, 1, []int64{3, 3}, [][]uint16{{1, 2}}); err == nil {
		t.Error("NewSparseSource accepted a duplicate row")
	}
	if _, err := NewSparseSource(10, 1, []int64{10}, [][]uint16{{1}}); err == nil {
		t.Error("NewSparseSource accepted an out-of-range row")
	}
}

// Keep codestore's default in view: the sink must fall back to it.
func TestSinkDefaultBlockRows(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "d.codes.000")
	sink, err := NewSplitSink([]string{p}, []int{0, 3}, []int{4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.AppendColumns([][]uint16{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	m, err := sink.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards[0].BlockRows != codestore.DefaultBlockRows {
		t.Fatalf("BlockRows = %d, want default %d", m.Shards[0].BlockRows, codestore.DefaultBlockRows)
	}
}
