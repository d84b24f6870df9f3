package shard

import (
	"fmt"
	"sort"

	"subtab/internal/colstore"
	"subtab/internal/table"
)

// Sharded raw columns: a table's paged column store (package colstore) is
// split at the same row cuts as its code shards, so a worker holding 1/Nth
// of the codes holds ~1/Nth of the column pages too. Cells presents the N
// stores as one table.CellSource; like Source it may be partial — shards
// owned by remote peers stay nil — and a coordinator installs a CellFetcher
// so gathers spanning remote shards resolve with one round trip per shard.

// CellFetcher fetches rendered cells for one remote shard: cols are source
// column indices, rows are shard-local, and the result is cells[col][row]
// (the shard-exec cells endpoint in the serving layer).
type CellFetcher func(shard int, cols []int, rows []int) ([][]string, error)

// Cells is a table.CellSource over N row-range column-store shards.
type Cells struct {
	descs  []Desc
	starts []int
	stores []*colstore.Store
	names  []string
	fetch  CellFetcher
}

// OpenCells opens the column-store shards described by descs (file names
// resolved against dir) as one cell source over columns named names. With
// allowMissing, shard files that do not exist load as nil — the coordinator
// mode — and gathers touching them need an installed CellFetcher; every
// shard that is present still validates its geometry, identity checksum and
// schema against the descriptor and names.
func OpenCells(dir string, descs []Desc, names []string, allowMissing bool) (*Cells, error) {
	if len(descs) == 0 {
		return nil, fmt.Errorf("shard: cell source needs at least one shard")
	}
	stores, err := openShards(dir, descs, len(names), allowMissing, "column shard", colstore.OpenIn)
	if err != nil {
		return nil, err
	}
	c := &Cells{
		descs:  append([]Desc(nil), descs...),
		starts: make([]int, len(descs)+1),
		stores: stores,
		names:  append([]string(nil), names...),
	}
	for i, d := range descs {
		c.starts[i+1] = c.starts[i] + d.Rows
		for j, name := range names {
			if st := stores[i]; st != nil && st.ColumnName(j) != name {
				c.Close()
				return nil, fmt.Errorf("shard: column shard %d (%s) column %d is %q, table has %q", i, d.File, j, st.ColumnName(j), name)
			}
		}
	}
	return c, nil
}

// Close closes every opened shard store.
func (c *Cells) Close() error {
	var first error
	for _, st := range c.stores {
		if st == nil {
			continue
		}
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetFetcher installs the remote-shard cell fetcher (the coordinator role).
// Install before the source starts serving gathers.
func (c *Cells) SetFetcher(f CellFetcher) { c.fetch = f }

// NumShards returns the shard count.
func (c *Cells) NumShards() int { return len(c.descs) }

// Desc returns shard i's descriptor.
func (c *Cells) Desc(i int) Desc { return c.descs[i] }

// ShardDescs returns a copy of all shard descriptors (modelio serializes
// them as the model's external column-store reference).
func (c *Cells) ShardDescs() []Desc { return append([]Desc(nil), c.descs...) }

// ShardStart returns the global row id of shard i's first row.
func (c *Cells) ShardStart(i int) int { return c.starts[i] }

// ShardAvailable reports whether shard i's store is held locally.
func (c *Cells) ShardAvailable(i int) bool { return c.stores[i] != nil }

// Complete reports whether every shard store is held locally.
func (c *Cells) Complete() bool {
	for _, st := range c.stores {
		if st == nil {
			return false
		}
	}
	return true
}

// NumRows returns the summed row count of all shards.
func (c *Cells) NumRows() int { return c.starts[len(c.starts)-1] }

// NumCols returns the table's column count.
func (c *Cells) NumCols() int { return len(c.names) }

// ColumnName returns the name of column i.
func (c *Cells) ColumnName(i int) string { return c.names[i] }

// shardOf locates the shard owning global row r.
func (c *Cells) shardOf(r int) int {
	return sort.Search(len(c.descs), func(i int) bool { return c.starts[i+1] > r })
}

// GatherCells implements table.CellSource for a single column.
func (c *Cells) GatherCells(col int, rows []int) ([]string, error) {
	out, err := c.GatherViewCells([]int{col}, rows)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// GatherViewCells gathers the cells of every requested column at the given
// global rows in one pass: rows are grouped by owning shard, local shards
// read their stores directly, and each remote shard costs one CellFetcher
// round trip covering all columns. The result is cells[col][row], aligned
// with the request order.
func (c *Cells) GatherViewCells(cols []int, rows []int) ([][]string, error) {
	for _, col := range cols {
		if col < 0 || col >= len(c.names) {
			return nil, fmt.Errorf("shard: column %d out of range [0, %d)", col, len(c.names))
		}
	}
	out := make([][]string, len(cols))
	for j := range out {
		out[j] = make([]string, len(rows))
	}
	// Group request positions by owning shard, preserving order within each
	// group so scatter-back is positional.
	byShard := make(map[int][]int)
	for pos, r := range rows {
		if r < 0 || r >= c.NumRows() {
			return nil, fmt.Errorf("shard: row %d out of range [0, %d)", r, c.NumRows())
		}
		s := c.shardOf(r)
		byShard[s] = append(byShard[s], pos)
	}
	for s, positions := range byShard {
		local := make([]int, len(positions))
		for i, pos := range positions {
			local[i] = rows[pos] - c.starts[s]
		}
		var cells [][]string
		if st := c.stores[s]; st != nil {
			cells = make([][]string, len(cols))
			for j, col := range cols {
				got, err := st.GatherCells(col, local)
				if err != nil {
					return nil, fmt.Errorf("shard: gathering cells from shard %d: %w", s, err)
				}
				cells[j] = got
			}
		} else {
			if c.fetch == nil {
				return nil, fmt.Errorf("shard: shard %d's column pages are remote and no cell fetcher is installed", s)
			}
			got, err := c.fetch(s, cols, local)
			if err != nil {
				return nil, fmt.Errorf("shard: fetching cells from shard %d: %w", s, err)
			}
			if len(got) != len(cols) {
				return nil, fmt.Errorf("shard: shard %d returned %d cell columns, want %d", s, len(got), len(cols))
			}
			for j := range got {
				if len(got[j]) != len(local) {
					return nil, fmt.Errorf("shard: shard %d returned %d cells for column %d, want %d", s, len(got[j]), cols[j], len(local))
				}
			}
			cells = got
		}
		for i, pos := range positions {
			for j := range cols {
				out[j][pos] = cells[j][i]
			}
		}
	}
	return out, nil
}

// MaterializeTable rebuilds the full typed table from every shard store's
// rows — the whole-table escape hatch behind query evaluation and
// incremental append — decoding each shard straight into one allocation
// (colstore.Concat). Every shard must be held locally (a coordinator cannot
// materialize remote rows; the operations that need this are rejected on
// coordinators before reaching here). Each shard store carries the source
// column's complete dictionary, so categorical codes in the concatenated
// table match the original table's exactly.
func (c *Cells) MaterializeTable(name string) (*table.Table, error) {
	if !c.Complete() {
		return nil, fmt.Errorf("shard: materializing %q needs every column shard locally", name)
	}
	out, err := colstore.Concat(name, c.stores)
	if err != nil {
		return nil, fmt.Errorf("shard: materializing %q: %w", name, err)
	}
	return out, nil
}

// ShardGather reads rendered cells straight from one locally held shard:
// the worker half of the shard-exec cells protocol. rows are shard-local.
func (c *Cells) ShardGather(idx int, cols []int, rows []int) ([][]string, error) {
	if idx < 0 || idx >= len(c.stores) {
		return nil, fmt.Errorf("shard: shard %d out of range [0, %d)", idx, len(c.stores))
	}
	st := c.stores[idx]
	if st == nil {
		return nil, fmt.Errorf("shard: shard %d's column pages are not held locally", idx)
	}
	out := make([][]string, len(cols))
	for j, col := range cols {
		got, err := st.GatherCells(col, rows)
		if err != nil {
			return nil, err
		}
		out[j] = got
	}
	return out, nil
}
