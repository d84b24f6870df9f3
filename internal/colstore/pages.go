package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"subtab/internal/blockfile"
	"subtab/internal/table"
)

// Encoding names how one column's cells are stored on its pages. Every
// encoding is exact: a cell reads back as the bits it was written from,
// except that any NaN reads back as NaN. The writer picks each column's
// narrowest exact encoding from its data (see chooseEncoding).
type Encoding uint8

const (
	// Float64 stores a numeric cell's float64 bits in 8 bytes.
	Float64 Encoding = 1 + iota
	// Float32 stores a numeric cell's float32 bits in 4 bytes; chosen when
	// every value of the column converts to float32 and back unchanged.
	Float32
	// Offset stores an integral numeric cell as its unsigned offset from
	// the column's base in 1, 2, 4, 8, 16 or 32 bits; chosen when every
	// value is an integer of magnitude at most 2^53 (negative zero
	// excluded) and the span fits below the NaN sentinel.
	Offset
	// DictCode stores a categorical cell's dictionary code in 1, 2, 4, 8,
	// 16 or 32 bits, by dictionary size.
	DictCode
)

// maxExactInt bounds Offset values and bases: every integer of magnitude
// up to 2^53 is an exact float64, and base + offset stays inside int64.
const maxExactInt = 1 << 53

// encoding is one column's page encoding: the scheme, the cell width in
// bits, and for Offset the base every cell is stored relative to. The
// all-ones cell of the width is the sentinel for a missing cell (NaN, or
// code -1).
type encoding struct {
	enc  Encoding
	bits int
	base int64
}

// allOnes is the missing-cell sentinel of a bits-wide cell.
func allOnes(bits int) uint64 { return ^uint64(0) >> (64 - bits) }

// narrowest returns the smallest of 1, 2, 4, 8, 16 or 32 bits whose values
// below the all-ones sentinel cover [0, top], or 0 when none does.
func narrowest(top uint64) int {
	for _, bits := range []int{1, 2, 4, 8, 16, 32} {
		if top < allOnes(bits) {
			return bits
		}
	}
	return 0
}

// chooseEncoding returns the narrowest exact encoding of col's cells in
// rows [start, end), in one pass over them.
func chooseEncoding(col *table.Column, start, end int) encoding {
	if col.Kind == table.Categorical {
		// Every dictionary code must fit, not only the ones these rows use:
		// a shard's slice shares its table's dictionary.
		return encoding{enc: DictCode, bits: narrowest(uint64(max(col.Dict.Size()-1, 0)))}
	}
	ints, f32 := true, true
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range col.Nums[start:end] {
		if math.IsNaN(v) {
			continue
		}
		if ints {
			if v != math.Trunc(v) || math.Abs(v) > maxExactInt || v == 0 && math.Signbit(v) {
				ints = false
			} else {
				lo, hi = min(lo, int64(v)), max(hi, int64(v))
			}
		}
		if f32 && math.Float64bits(float64(float32(v))) != math.Float64bits(v) {
			f32 = false
		}
		if !ints && !f32 {
			break
		}
	}
	if ints {
		if lo > hi { // no value but NaN
			return encoding{enc: Offset, bits: 1}
		}
		if bits := narrowest(uint64(hi - lo)); bits > 0 {
			return encoding{enc: Offset, bits: bits, base: lo}
		}
	}
	if f32 {
		return encoding{enc: Float32, bits: 32}
	}
	return encoding{enc: Float64, bits: 64}
}

// appendCells appends the encoding of col's rows [start, start+n) to dst,
// blockfile.CellBytes each.
func (e encoding) appendCells(dst []byte, col *table.Column, start, n int) []byte {
	dst = slices.Grow(dst, n*blockfile.CellBytes(e.bits))
	if e.enc == DictCode {
		for _, code := range col.Cats[start : start+n] {
			u := uint64(code)
			if code < 0 {
				u = allOnes(e.bits)
			}
			dst = blockfile.AppendCell(dst, u, e.bits)
		}
		return dst
	}
	for _, v := range col.Nums[start : start+n] {
		var u uint64
		switch {
		case math.IsNaN(v):
			u = allOnes(e.bits)
		case e.enc == Offset:
			u = uint64(int64(v) - e.base)
		case e.enc == Float32:
			u = uint64(math.Float32bits(float32(v)))
		default:
			u = math.Float64bits(v)
		}
		dst = blockfile.AppendCell(dst, u, e.bits)
	}
	return dst
}

// num decodes a numeric cell.
func (e encoding) num(u uint64) float64 {
	switch {
	case u == allOnes(e.bits):
		return math.NaN()
	case e.enc == Offset:
		return float64(e.base + int64(u))
	case e.enc == Float32:
		return float64(math.Float32frombits(uint32(u)))
	}
	return math.Float64frombits(u)
}

// code decodes a categorical cell: its dictionary code, -1 when missing.
// A code the dictionary does not hold is damage.
func (e encoding) code(u uint64, dictLen int) (int32, error) {
	if u == allOnes(e.bits) {
		return -1, nil
	}
	if u >= uint64(dictLen) {
		return 0, fmt.Errorf("%w: dictionary code %d, dictionary holds %d", ErrCorrupt, u, dictLen)
	}
	return int32(u), nil
}

// nums decodes a page's numeric cells into dst, one loop per encoding.
func (e encoding) nums(dst []float64, cells []uint64) {
	miss := allOnes(e.bits)
	switch e.enc {
	case Offset:
		for i, u := range cells {
			if u == miss {
				dst[i] = math.NaN()
				continue
			}
			dst[i] = float64(e.base + int64(u))
		}
	case Float32:
		for i, u := range cells {
			if u == miss {
				dst[i] = math.NaN()
				continue
			}
			dst[i] = float64(math.Float32frombits(uint32(u)))
		}
	default:
		for i, u := range cells {
			if u == miss {
				dst[i] = math.NaN()
				continue
			}
			dst[i] = math.Float64frombits(u)
		}
	}
}

// codes decodes a page's categorical cells into dst: dictionary codes, -1
// where missing. A code the dictionary does not hold is damage.
func (e encoding) codes(dst []int32, cells []uint64, dictLen int) error {
	miss := allOnes(e.bits)
	for i, u := range cells {
		if u >= uint64(dictLen) && u != miss {
			return fmt.Errorf("%w: dictionary code %d, dictionary holds %d", ErrCorrupt, u, dictLen)
		}
		dst[i] = int32(u)
		if u == miss {
			dst[i] = -1
		}
	}
	return nil
}

// appendMeta appends the encoding's meta entry: u8 encoding, u8 width in
// bits, and for Offset the i64 base.
func (e encoding) appendMeta(dst []byte) []byte {
	dst = append(dst, byte(e.enc), byte(e.bits))
	if e.enc == Offset {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.base))
	}
	return dst
}

// parseEncoding decodes a meta entry from the front of buf for a column of
// kind k, returning it and the bytes consumed. An encoding the kind cannot
// have, a width the encoding cannot have, or a base outside ±2^53 (whose
// offsets could overflow) is ErrCorrupt.
func parseEncoding(buf []byte, k table.Kind) (encoding, int, error) {
	if len(buf) < 2 {
		return encoding{}, 0, fmt.Errorf("%w: encoding truncated", ErrCorrupt)
	}
	e := encoding{enc: Encoding(buf[0]), bits: int(buf[1])}
	ok := false
	switch e.enc {
	case Float64:
		ok = k == table.Numeric && e.bits == 64
	case Float32:
		ok = k == table.Numeric && e.bits == 32
	case Offset:
		ok = k == table.Numeric && e.bits <= 32 && blockfile.ValidBits(e.bits)
	case DictCode:
		ok = k == table.Categorical && e.bits <= 32 && blockfile.ValidBits(e.bits)
	}
	if !ok {
		return encoding{}, 0, fmt.Errorf("%w: encoding %d at width %d for a %v column", ErrCorrupt, e.enc, buf[1], k)
	}
	if e.enc != Offset {
		return e, 2, nil
	}
	if len(buf) < 10 {
		return encoding{}, 0, fmt.Errorf("%w: offset base truncated", ErrCorrupt)
	}
	e.base = int64(binary.LittleEndian.Uint64(buf[2:]))
	if e.base < -maxExactInt || e.base > maxExactInt {
		return encoding{}, 0, fmt.Errorf("%w: offset base %d outside ±2^53", ErrCorrupt, e.base)
	}
	return e, 10, nil
}

// appendDictPage appends a dictionary page — u32 count, then per string a
// u32 length and the bytes — to dst and returns the extended slice.
func appendDictPage(dst []byte, strs []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(strs)))
	for _, s := range strs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// decodeDictPage decodes a dictionary page from the front of buf, returning
// the strings and the number of bytes consumed.
func decodeDictPage(buf []byte) ([]string, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("dictionary page shorter than its count")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	off := 4
	// A count the remaining bytes cannot possibly hold is structural damage,
	// not an allocation request.
	if n < 0 || n > (len(buf)-off)/4 {
		return nil, 0, fmt.Errorf("dictionary page claims %d strings in %d bytes", n, len(buf)-off)
	}
	strs := make([]string, n)
	for i := range strs {
		if len(buf)-off < 4 {
			return nil, 0, fmt.Errorf("dictionary page truncated at string %d", i)
		}
		l := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if l < 0 || l > len(buf)-off {
			return nil, 0, fmt.Errorf("dictionary string %d claims %d bytes, %d remain", i, l, len(buf)-off)
		}
		strs[i] = string(buf[off : off+l])
		off += l
	}
	return strs, off, nil
}
