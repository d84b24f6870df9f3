package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"subtab/internal/query"
)

// Checksummed request/response codec for the shard-exec HTTP endpoints
// (POST /shards/{table}/{idx}/sample). Both messages are little-endian
// with a magic, a version, and a trailing CRC-32C over everything before
// it, so a truncated or bit-flipped body fails decode instead of skewing
// a merge. The response carries, besides the Summary, the codes of every
// row the summary references — the coordinator finishes the whole
// selection from one round trip per shard.

// Version history: v1 was the unfiltered sampler; v2 adds predicate
// pushdown (SampleRequest.Preds, SampleResponse.Matched). Peers on
// different versions reject each other's frames outright — a mixed fleet
// fails loudly instead of silently sampling unfiltered.
const wireVersion uint16 = 2

// ErrCorrupt marks a damaged or truncated wire frame.
var ErrCorrupt = errors.New("shard: corrupt wire frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	reqMagic  = [4]byte{'S', 'B', 'S', 'Q'}
	respMagic = [4]byte{'S', 'B', 'S', 'R'}
)

// Decoders check that a frame holds every element it declares before
// allocating for it: predMinBytes is a predicate's smallest encoding (two
// empty strings, the op and the operand), and maxCols bounds the one count
// no payload bytes back, a zero-row response's columns.
const (
	predMinBytes = 4 + 2 + 8 + 4
	maxCols      = 1 << 20
)

// SampleRequest asks a peer to Scan one shard it owns. Checksum is the
// shard store's identity from the coordinator's map — a peer whose file
// disagrees rejects the request rather than contributing skewed minima.
// Preds, when non-empty, is a conjunction the peer evaluates shard-locally
// (code-level with residual cell checks) before sampling, so only matching
// rows contribute minima and candidates.
type SampleRequest struct {
	Checksum uint32
	Seed     int64
	Budget   int
	Cols     []int
	Preds    []query.Predicate
}

// SampleResponse is the peer's Summary plus the referenced rows' codes:
// Rows lists the summary's candidate rows (sorted, global ids) and
// Codes[c][k] is table column c's code for Rows[k]. Matched counts the
// shard's rows satisfying the request's predicates (all rows when the
// request carried none) — the coordinator sums it to gate scaled mode on
// the filtered population, not the table size.
type SampleResponse struct {
	Summary Summary
	Rows    []int64
	Codes   [][]uint16
	Matched int
}

// Marshal encodes the request.
func (r *SampleRequest) Marshal() []byte {
	buf := make([]byte, 0, 32+4*len(r.Cols))
	buf = append(buf, reqMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, r.Checksum)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Seed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Budget))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Cols)))
	for _, c := range r.Cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Preds)))
	for _, p := range r.Preds {
		buf = appendStr(buf, p.Col)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Op))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Num))
		buf = appendStr(buf, p.Str)
	}
	return appendCRC(buf)
}

// UnmarshalSampleRequest decodes and verifies a request body.
func UnmarshalSampleRequest(raw []byte) (*SampleRequest, error) {
	body, err := checkFrame(raw, reqMagic, "sample request")
	if err != nil {
		return nil, err
	}
	d := &wireDecoder{buf: body, off: 6}
	r := &SampleRequest{
		Checksum: d.u32(),
		Seed:     int64(d.u64()),
		Budget:   int(int64(d.u64())),
	}
	nCols := int(d.u32())
	if nCols < 0 || nCols > 1<<24 || !d.has(4*nCols) {
		return nil, fmt.Errorf("%w: sample request with %d columns", ErrCorrupt, nCols)
	}
	r.Cols = make([]int, nCols)
	for i := range r.Cols {
		r.Cols[i] = int(int32(d.u32()))
	}
	nPreds := int(d.u32())
	if nPreds < 0 || nPreds > 1<<16 || !d.has(predMinBytes*nPreds) {
		return nil, fmt.Errorf("%w: sample request with %d predicates", ErrCorrupt, nPreds)
	}
	if nPreds > 0 {
		r.Preds = make([]query.Predicate, nPreds)
		for i := range r.Preds {
			r.Preds[i].Col = d.str()
			r.Preds[i].Op = query.Op(d.u16())
			r.Preds[i].Num = math.Float64frombits(d.u64())
			r.Preds[i].Str = d.str()
		}
	}
	if err := d.finish("sample request"); err != nil {
		return nil, err
	}
	return r, nil
}

// Marshal encodes the response.
func (r *SampleResponse) Marshal() []byte {
	size := 32 + 16*len(r.Summary.Strata) + 16*len(r.Summary.Cand) + 8*len(r.Rows)
	for _, col := range r.Codes {
		size += 2 * len(col)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, respMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Summary.Strata)))
	for _, sm := range r.Summary.Strata {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sm.Row))
		buf = binary.LittleEndian.AppendUint64(buf, sm.Hash)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Summary.Cand)))
	for _, hr := range r.Summary.Cand {
		buf = binary.LittleEndian.AppendUint64(buf, hr.Hash)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(hr.Row))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Rows)))
	for _, row := range r.Rows {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(row))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Codes)))
	for _, col := range r.Codes {
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint16(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Matched))
	return appendCRC(buf)
}

// UnmarshalSampleResponse decodes and verifies a response body.
func UnmarshalSampleResponse(raw []byte) (*SampleResponse, error) {
	body, err := checkFrame(raw, respMagic, "sample response")
	if err != nil {
		return nil, err
	}
	d := &wireDecoder{buf: body, off: 6}
	r := &SampleResponse{}
	nStrata := int(d.u32())
	if nStrata < 0 || nStrata > 1<<28 || !d.has(16*nStrata) {
		return nil, fmt.Errorf("%w: sample response strata", ErrCorrupt)
	}
	r.Summary.Strata = make([]StratumMin, nStrata)
	for i := range r.Summary.Strata {
		r.Summary.Strata[i].Row = int64(d.u64())
		r.Summary.Strata[i].Hash = d.u64()
	}
	nCand := int(d.u32())
	if nCand < 0 || !d.has(16*nCand) {
		return nil, fmt.Errorf("%w: sample response candidates", ErrCorrupt)
	}
	r.Summary.Cand = make([]HashRow, nCand)
	for i := range r.Summary.Cand {
		r.Summary.Cand[i].Hash = d.u64()
		r.Summary.Cand[i].Row = int64(d.u64())
	}
	nRows := int(d.u32())
	if nRows < 0 || !d.has(8*nRows) {
		return nil, fmt.Errorf("%w: sample response rows", ErrCorrupt)
	}
	r.Rows = make([]int64, nRows)
	for i := range r.Rows {
		r.Rows[i] = int64(d.u64())
	}
	// A zero-row response carries no code bytes to bound its column
	// count, so it takes the column limit modelio enforces.
	nCols := int(d.u32())
	if nCols < 0 || nCols > 1<<24 || nRows == 0 && nCols > maxCols || !d.has(2*nCols*nRows) {
		return nil, fmt.Errorf("%w: sample response codes", ErrCorrupt)
	}
	r.Codes = make([][]uint16, nCols)
	for c := range r.Codes {
		col := make([]uint16, nRows)
		for i := range col {
			col[i] = d.u16()
		}
		r.Codes[c] = col
	}
	r.Matched = int(int64(d.u64()))
	if err := d.finish("sample response"); err != nil {
		return nil, err
	}
	return r, nil
}

// appendCRC appends the CRC-32C of buf to buf.
func appendCRC(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// appendStr appends a length-prefixed string (the wireDecoder.str framing).
func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// checkFrame verifies length, magic, version and trailing CRC, returning
// the body (everything before the CRC).
func checkFrame(raw []byte, magic [4]byte, what string) ([]byte, error) {
	if len(raw) < 10 {
		return nil, fmt.Errorf("%w: %s of %d bytes", ErrCorrupt, what, len(raw))
	}
	if [4]byte(raw[:4]) != magic {
		return nil, fmt.Errorf("%w: %s has bad magic", ErrCorrupt, what)
	}
	body := raw[: len(raw)-4 : len(raw)-4]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, what)
	}
	if v := binary.LittleEndian.Uint16(raw[4:]); v != wireVersion {
		return nil, fmt.Errorf("%w: %s version %d, this build speaks version %d", ErrCorrupt, what, v, wireVersion)
	}
	return body, nil
}

// wireDecoder reads fixed-width fields with sticky bounds checking.
type wireDecoder struct {
	buf  []byte
	off  int
	fail bool
}

func (d *wireDecoder) has(n int) bool { return !d.fail && n >= 0 && d.off+n <= len(d.buf) }

func (d *wireDecoder) u16() uint16 {
	if !d.has(2) {
		d.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *wireDecoder) u32() uint32 {
	if !d.has(4) {
		d.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *wireDecoder) u64() uint64 {
	if !d.has(8) {
		d.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *wireDecoder) str() string {
	n := int(d.u32())
	if n < 0 || !d.has(n) {
		d.fail = true
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// finish requires the body to be fully and exactly consumed.
func (d *wireDecoder) finish(what string) error {
	if d.fail || d.off != len(d.buf) {
		return fmt.Errorf("%w: %s has inconsistent length", ErrCorrupt, what)
	}
	return nil
}

var (
	cellsReqMagic  = [4]byte{'S', 'B', 'C', 'Q'}
	cellsRespMagic = [4]byte{'S', 'B', 'C', 'R'}
)

// CellsRequest asks a peer for rendered cells from one column-store shard
// it owns. Checksum is the shard's column-store identity from the
// coordinator's descriptors; Rows are shard-local row indices and Cols are
// source column indices.
type CellsRequest struct {
	Checksum uint32
	Cols     []int
	Rows     []int64
}

// CellsResponse carries the rendered cells: Cells[c][k] is the cell of
// request column Cols[c] at request row Rows[k], the exact bytes the
// resident table would render.
type CellsResponse struct {
	Cells [][]string
}

// Marshal encodes the request.
func (r *CellsRequest) Marshal() []byte {
	buf := make([]byte, 0, 24+4*len(r.Cols)+8*len(r.Rows))
	buf = append(buf, cellsReqMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, r.Checksum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Cols)))
	for _, c := range r.Cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Rows)))
	for _, row := range r.Rows {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(row))
	}
	return appendCRC(buf)
}

// UnmarshalCellsRequest decodes and verifies a request body.
func UnmarshalCellsRequest(raw []byte) (*CellsRequest, error) {
	body, err := checkFrame(raw, cellsReqMagic, "cells request")
	if err != nil {
		return nil, err
	}
	d := &wireDecoder{buf: body, off: 6}
	r := &CellsRequest{Checksum: d.u32()}
	nCols := int(d.u32())
	if nCols < 0 || nCols > 1<<24 || !d.has(4*nCols) {
		return nil, fmt.Errorf("%w: cells request with %d columns", ErrCorrupt, nCols)
	}
	r.Cols = make([]int, nCols)
	for i := range r.Cols {
		r.Cols[i] = int(int32(d.u32()))
	}
	nRows := int(d.u32())
	if nRows < 0 || !d.has(8*nRows) {
		return nil, fmt.Errorf("%w: cells request rows", ErrCorrupt)
	}
	r.Rows = make([]int64, nRows)
	for i := range r.Rows {
		r.Rows[i] = int64(d.u64())
	}
	if err := d.finish("cells request"); err != nil {
		return nil, err
	}
	return r, nil
}

// Marshal encodes the response.
func (r *CellsResponse) Marshal() []byte {
	size := 16
	for _, col := range r.Cells {
		size += 4
		for _, s := range col {
			size += 4 + len(s)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, cellsRespMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Cells)))
	for _, col := range r.Cells {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(col)))
		for _, s := range col {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	return appendCRC(buf)
}

// UnmarshalCellsResponse decodes and verifies a response body.
func UnmarshalCellsResponse(raw []byte) (*CellsResponse, error) {
	body, err := checkFrame(raw, cellsRespMagic, "cells response")
	if err != nil {
		return nil, err
	}
	d := &wireDecoder{buf: body, off: 6}
	nCols := int(d.u32())
	if nCols < 0 || nCols > 1<<24 {
		return nil, fmt.Errorf("%w: cells response with %d columns", ErrCorrupt, nCols)
	}
	r := &CellsResponse{Cells: make([][]string, 0, min(nCols, 4096))}
	for c := 0; c < nCols; c++ {
		nCells := int(d.u32())
		if nCells < 0 || !d.has(4*nCells) {
			return nil, fmt.Errorf("%w: cells response column %d", ErrCorrupt, c)
		}
		col := make([]string, nCells)
		for i := range col {
			col[i] = d.str()
		}
		if d.fail {
			return nil, fmt.Errorf("%w: cells response column %d", ErrCorrupt, c)
		}
		r.Cells = append(r.Cells, col)
	}
	if err := d.finish("cells response"); err != nil {
		return nil, err
	}
	return r, nil
}
