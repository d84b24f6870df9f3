package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"subtab/internal/codestore"
)

// SplitSink implements binning.CodeSink over N codestore writers: streamed
// row chunks are routed to shards by a fixed row-boundary plan, so a
// table's codes export straight into their sharded layout in one pass
// (core.Model.PageOut). Each shard is written to its path plus ".tmp";
// Close finalizes every store, renames them all into place and returns the
// shard map, which the model file records — a crash mid-export leaves only
// .tmp leftovers that codestore.Open rejects.
type SplitSink struct {
	paths     []string
	cuts      []int // cuts[i] is shard i's first global row; len(paths)+1 entries
	ws        []*codestore.Writer
	blockRows int
	cols      int
	pos       int // global rows consumed so far
	cur       int // shard owning row pos
}

// NewSplitSink starts a sink writing shards to the given paths, one column
// per entry of bins (each column's bin count, which sets its code width).
// cuts holds the row boundaries: shard i owns global rows
// [cuts[i], cuts[i+1]); it must have len(paths)+1 non-decreasing entries
// starting at 0 (empty shards are allowed). blockRows <= 0 uses
// codestore.DefaultBlockRows.
func NewSplitSink(paths []string, cuts []int, bins []int, blockRows int) (*SplitSink, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("shard: split sink needs at least one shard")
	}
	if len(cuts) != len(paths)+1 || cuts[0] != 0 {
		return nil, fmt.Errorf("shard: split plan needs %d boundaries starting at 0, got %v", len(paths)+1, cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			return nil, fmt.Errorf("shard: split boundaries must be non-decreasing, got %v", cuts)
		}
	}
	if blockRows <= 0 {
		blockRows = codestore.DefaultBlockRows
	}
	s := &SplitSink{paths: paths, cuts: cuts, blockRows: blockRows, cols: len(bins)}
	for i, p := range paths {
		w, err := codestore.Create(p+".tmp", bins, cuts[i+1]-cuts[i], blockRows)
		if err != nil {
			s.Abort()
			return nil, err
		}
		s.ws = append(s.ws, w)
	}
	return s, nil
}

// AppendColumns routes one chunk of rows to the owning shard writers;
// chunk[c] holds column c's new codes. Rows past the plan's last boundary
// are an error — the plan is the contract.
func (s *SplitSink) AppendColumns(chunk [][]uint16) error {
	if len(chunk) != s.cols {
		return fmt.Errorf("shard: chunk has %d columns, sink has %d", len(chunk), s.cols)
	}
	n := 0
	if s.cols > 0 {
		n = len(chunk[0])
	}
	sub := make([][]uint16, s.cols)
	off := 0
	for off < n {
		for s.cur < len(s.ws) && s.pos >= s.cuts[s.cur+1] {
			s.cur++
		}
		if s.cur >= len(s.ws) {
			return fmt.Errorf("shard: row %d past the split plan's %d rows", s.pos, s.cuts[len(s.cuts)-1])
		}
		take := min(s.cuts[s.cur+1]-s.pos, n-off)
		for c := range sub {
			sub[c] = chunk[c][off : off+take]
		}
		if err := s.ws[s.cur].AppendColumns(sub); err != nil {
			return err
		}
		s.pos += take
		off += take
	}
	if n == 0 && s.pos == 0 {
		// A zero-row export still records the column count in every shard.
		for c := range sub {
			sub[c] = nil
		}
		for _, w := range s.ws {
			if err := w.AppendColumns(sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close finalizes every shard store, renames them into place and returns
// the shard map (base file names, per-shard geometry and checksums). The
// export must have delivered exactly the planned row count.
func (s *SplitSink) Close() (*Map, error) {
	if s.pos != s.cuts[len(s.cuts)-1] {
		s.Abort()
		return nil, fmt.Errorf("shard: export delivered %d rows, split plan has %d", s.pos, s.cuts[len(s.cuts)-1])
	}
	for i, w := range s.ws {
		if err := w.Close(); err != nil {
			s.ws[i] = nil
			s.Abort()
			return nil, fmt.Errorf("shard: finalizing shard %d: %w", i, err)
		}
		s.ws[i] = nil
	}
	for _, p := range s.paths {
		if err := os.Rename(p+".tmp", p); err != nil {
			s.Abort()
			return nil, err
		}
	}
	// Reopen each finalized store to record its identity checksum: the map
	// must describe the bytes on disk, not what the writer intended.
	m := &Map{Shards: make([]Desc, 0, len(s.paths))}
	for i, p := range s.paths {
		st, err := codestore.Open(p)
		if err != nil {
			return nil, fmt.Errorf("shard: reopening shard %d: %w", i, err)
		}
		m.Shards = append(m.Shards, Desc{
			File:      filepath.Base(p),
			Rows:      st.NumRows(),
			BlockRows: st.BlockRows(),
			Checksum:  st.Checksum(),
		})
		st.Close()
	}
	return m, nil
}

// Abort discards the sink: open writers are aborted and every shard's
// .tmp file is removed. Finalized shards a failed Close already renamed
// are left behind — they are complete stores and the next export renames
// over them.
func (s *SplitSink) Abort() {
	for i, w := range s.ws {
		if w != nil {
			w.Abort()
			s.ws[i] = nil
		}
	}
	for _, p := range s.paths {
		os.Remove(p + ".tmp")
	}
}
