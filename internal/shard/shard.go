// Package shard splits a table's on-disk code store (package codestore)
// into N row-range shards and runs one logical scaled selection across
// them. It has three parts:
//
//   - The shard map: an ordered list of shard descriptors (file name, row
//     count, block size, checksum) plus a checksummed map-file codec, so a
//     sharded table's layout is itself a verifiable artifact.
//   - Source: a binning.CodeSource over N opened shard stores, presenting
//     them as one contiguous code matrix (virtual uniform blocks assembled
//     across shard boundaries). A Source may be partial — shards owned by
//     remote peers stay nil — and reports availability per block so
//     attach-time validation and local scans skip what is not here.
//   - The stratified min-hash sampler (sample.go) and its wire codec
//     (wire.go). It is the only sampler: a table on one store is the
//     one-summary case. Both phases merge associatively, so per-shard
//     summaries — computed by local goroutines or remote subtab-server
//     peers — combine into exactly the sample one scan of every row would
//     pick. Bit-identical selection is the contract, pinned by
//     never-recording golden tests.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"subtab/internal/blockfile"
)

// MapVersion is the current shard-map file format version.
const MapVersion uint16 = 1

var (
	mapMagic    = [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'S', 'H'}
	mapEndMagic = [8]byte{'S', 'U', 'B', 'T', 'A', 'B', 'S', 'E'}
)

// ErrCorrupt marks a damaged or truncated shard-map file.
var ErrCorrupt = errors.New("shard: corrupt shard map")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Desc describes one shard: the base name of its codestore file, the rows
// it owns (shard i holds global rows [sum of previous Rows, +Rows)), its
// block granularity and the store's identity checksum (the codestore
// footer CRC), which pins the pairing between a map and its files.
type Desc struct {
	File      string
	Rows      int
	BlockRows int
	Checksum  uint32
}

// Map is an ordered shard list: the on-disk layout of one logical table.
type Map struct {
	Shards []Desc
}

// TotalRows returns the summed row count of all shards.
func (m *Map) TotalRows() int {
	n := 0
	for _, d := range m.Shards {
		n += d.Rows
	}
	return n
}

// Starts returns the cumulative global start row of each shard, with one
// trailing entry holding the total row count (len(Shards)+1 entries).
func (m *Map) Starts() []int {
	starts := make([]int, len(m.Shards)+1)
	for i, d := range m.Shards {
		starts[i+1] = starts[i] + d.Rows
	}
	return starts
}

// WriteFile writes the shard map to path (temp file + rename, so a crash
// cannot leave a plausible partial map). Layout, little-endian:
//
//	"SUBTABSH" magic · u16 version · u32 shard count ·
//	per shard: u32 name len · name bytes · u64 rows · u32 blockRows ·
//	u32 checksum · u32 CRC-32C over all preceding bytes · "SUBTABSE"
func WriteFile(path string, m *Map) error {
	for i, d := range m.Shards {
		if d.File == "" || d.File != filepath.Base(d.File) {
			return fmt.Errorf("shard: map entry %d has invalid file name %q", i, d.File)
		}
		if d.Rows < 0 || d.BlockRows <= 0 {
			return fmt.Errorf("shard: map entry %d has impossible geometry (%d rows, %d rows/block)", i, d.Rows, d.BlockRows)
		}
	}
	buf := make([]byte, 0, 64+48*len(m.Shards))
	buf = append(buf, mapMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, MapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	for _, d := range m.Shards {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.File)))
		buf = append(buf, d.File...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.BlockRows))
		buf = binary.LittleEndian.AppendUint32(buf, d.Checksum)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	buf = append(buf, mapEndMagic[:]...)
	return blockfile.WriteAtomic(path, func(tmp string) error { return os.WriteFile(tmp, buf, 0o644) })
}

// ReadFile reads and verifies a shard map written by WriteFile.
func ReadFile(path string) (*Map, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeMap(raw)
}

func decodeMap(raw []byte) (*Map, error) {
	const fixed = 8 + 2 + 4 + 4 + 8 // magic + version + count + crc + end magic
	if len(raw) < fixed {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(raw))
	}
	if [8]byte(raw[:8]) != mapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if [8]byte(raw[len(raw)-8:]) != mapEndMagic {
		return nil, fmt.Errorf("%w: missing end magic (truncated?)", ErrCorrupt)
	}
	body := raw[: len(raw)-12 : len(raw)-12]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(raw[len(raw)-12:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(raw[8:]); v != MapVersion {
		return nil, fmt.Errorf("%w: map version %d, this build reads version %d", ErrCorrupt, v, MapVersion)
	}
	n := int(binary.LittleEndian.Uint32(raw[10:]))
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("%w: %d shards", ErrCorrupt, n)
	}
	off := 14
	m := &Map{Shards: make([]Desc, 0, n)}
	for i := 0; i < n; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrCorrupt, i)
		}
		nameLen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nameLen < 0 || off+nameLen+16 > len(body) {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrCorrupt, i)
		}
		d := Desc{File: string(body[off : off+nameLen])}
		off += nameLen
		d.Rows = int(binary.LittleEndian.Uint64(body[off:]))
		d.BlockRows = int(binary.LittleEndian.Uint32(body[off+8:]))
		d.Checksum = binary.LittleEndian.Uint32(body[off+12:])
		off += 16
		if d.File == "" || d.File != filepath.Base(d.File) || d.Rows < 0 || d.BlockRows <= 0 {
			return nil, fmt.Errorf("%w: invalid entry %d (%q, %d rows, %d rows/block)", ErrCorrupt, i, d.File, d.Rows, d.BlockRows)
		}
		m.Shards = append(m.Shards, d)
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-off)
	}
	return m, nil
}

// shardStore is what a shard's store file answers to be checked against its
// descriptor (codestore.Store and colstore.Store both do).
type shardStore interface {
	comparable
	NumRows() int
	NumCols() int
	BlockRows() int
	Checksum() uint32
	Close() error
}

// openShards opens one cols-wide store per descriptor (file names resolved
// against dir), validating each one's geometry and identity checksum against
// its descriptor. With allowMissing, shards whose files do not exist stay
// the zero S (nil); any other failure closes what was opened. kind names the
// store in errors.
func openShards[S shardStore](dir string, descs []Desc, cols int, allowMissing bool, kind string, open func(string) (S, error)) (_ []S, err error) {
	var none S
	stores := make([]S, len(descs))
	defer func() {
		if err == nil {
			return
		}
		for _, st := range stores {
			if st != none {
				st.Close()
			}
		}
	}()
	for i, d := range descs {
		st, err := open(filepath.Join(dir, d.File))
		if err != nil {
			if allowMissing && errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("shard: opening %s %d (%s): %w", kind, i, d.File, err)
		}
		stores[i] = st
		if st.Checksum() != d.Checksum {
			return nil, fmt.Errorf("shard: %s %d (%s) has checksum %08x, map expects %08x", kind, i, d.File, st.Checksum(), d.Checksum)
		}
		if st.NumRows() != d.Rows || st.NumCols() != cols || st.BlockRows() != d.BlockRows {
			return nil, fmt.Errorf("shard: %s %d (%s) is %dx%d at %d rows/block, map expects %dx%d at %d",
				kind, i, d.File, st.NumRows(), st.NumCols(), st.BlockRows(), d.Rows, cols, d.BlockRows)
		}
	}
	return stores, nil
}
