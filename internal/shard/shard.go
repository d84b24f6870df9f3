// Package shard splits a table's on-disk code store (package codestore)
// into N row-range shards and runs one logical scaled selection across
// them. It has three parts:
//
//   - The shard map: an ordered list of shard descriptors (file name, row
//     count, block size, checksum). A sharded table's model file carries
//     it (package modelio), and opening a shard checks the store against
//     its descriptor.
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
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"subtab/internal/blockfile"
)

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

// shardStore is what a shard's store file answers to be checked against its
// descriptor and its own page checksums (codestore.Store and colstore.Store
// both do).
type shardStore interface {
	comparable
	NumRows() int
	NumCols() int
	BlockRows() int
	Checksum() uint32
	Verify() error
	Close() error
}

// openShards opens one cols-wide store per descriptor (file names resolved
// against dir), validating each one's geometry and identity checksum against
// its descriptor and then every page against its checksum, so a damaged
// page fails the open (wrapping blockfile.ErrCorrupt) instead of being
// served. The check reads the file through its handle (pread), so the pages
// it reads do not stay resident; the store that is kept serves the file's
// mapping, as modelio serves an unsharded model's images. With
// allowMissing, shards whose files do not exist stay the zero S (nil) and
// are not checked; any other failure closes what was opened. kind names
// the store in errors; openIn is the store's OpenIn.
func openShards[S shardStore](dir string, descs []Desc, cols int, allowMissing bool, kind string, openIn func(*blockfile.Region, int64, int64) (S, error)) (_ []S, err error) {
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
		reg, err := blockfile.OpenUnmapped(filepath.Join(dir, d.File))
		if err != nil {
			if allowMissing && errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("shard: opening %s %d (%s): %w", kind, i, d.File, err)
		}
		err = checkShard(reg, d, cols, openIn)
		if err == nil {
			served := reg.Map()
			stores[i], err = openIn(served, 0, served.Size())
			served.Close()
		}
		reg.Close()
		if err != nil {
			return nil, fmt.Errorf("shard: %s %d (%s): %w", kind, i, d.File, err)
		}
	}
	return stores, nil
}

// checkShard opens the store reg holds, checks it against its descriptor
// d and verifies every page, then closes it again.
func checkShard[S shardStore](reg *blockfile.Region, d Desc, cols int, openIn func(*blockfile.Region, int64, int64) (S, error)) error {
	st, err := openIn(reg, 0, reg.Size())
	if err != nil {
		return err
	}
	defer st.Close()
	if st.Checksum() != d.Checksum {
		return fmt.Errorf("store has checksum %08x, map expects %08x", st.Checksum(), d.Checksum)
	}
	if st.NumRows() != d.Rows || st.NumCols() != cols || st.BlockRows() != d.BlockRows {
		return fmt.Errorf("store is %dx%d at %d rows/block, map expects %dx%d at %d",
			st.NumRows(), st.NumCols(), st.BlockRows(), d.Rows, cols, d.BlockRows)
	}
	return st.Verify()
}
