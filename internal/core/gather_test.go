package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/codestore"
	"subtab/internal/f32"
	"subtab/internal/shard"
)

// TestGatherMatchesRowVector pins the one tuple-vector gather against
// Model.RowVector bit for bit on inline codes, on the two ways codes leave
// memory — a paged-out model ("cells-paged": codes and cells in store
// images) and a code store attached to a binned table whose cells stay in
// memory ("codes-out-of-core"; the gather reads codes only) — on local
// shards, and on the two partial (remote) twins, which gather their locally
// held rows through the partial shard source and every row through a
// coordinator-style sparse overlay. Row sets cover
// a range, sorted and unsorted lists, repeats spanning several gather
// chunks, and the empty set; column sets cover the full table and an
// unsorted projection.
func TestGatherMatchesRowVector(t *testing.T) {
	layouts, _, _ := executionSweep(t)
	layouts["cells-paged"] = layouts["paged"]
	delete(layouts, "paged")
	ref := layouts["resident"]
	layouts["codes-out-of-core"] = codeStoreTwin(t)
	n, nc := ref.T.NumRows(), ref.T.NumCols()
	all := make([]int, nc)
	for c := range all {
		all[c] = c
	}
	colSets := map[string][]int{"all": all, "projection": {6, 0, 3, nc - 1}}
	rng := rand.New(rand.NewSource(3))

	// The overlay holds every third row, whatever shard owns it.
	var covered []int
	var ids []int64
	for r := 0; r < n; r += 3 {
		covered = append(covered, r)
		ids = append(ids, int64(r))
	}
	codes := make([][]uint16, nc)
	for c := range codes {
		for _, r := range covered {
			codes[c] = append(codes[c], ref.B.Code(c, r))
		}
	}
	overlay, err := shard.NewSparseSource(n, nc, ids, codes)
	if err != nil {
		t.Fatal(err)
	}

	rowSets := func(pool []int, lo, hi int) map[string]rowSet {
		var sorted, shuffled, repeated []int
		for _, r := range pool {
			if rng.Intn(4) == 0 {
				sorted = append(sorted, r)
			}
		}
		shuffled = append(shuffled, sorted...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i := 0; i < 2*gatherChunkRows+37; i++ {
			repeated = append(repeated, pool[rng.Intn(len(pool))])
		}
		return map[string]rowSet{
			"range":    {lo: lo, n: hi - lo},
			"sorted":   listRows(sorted),
			"unsorted": listRows(shuffled),
			"repeated": listRows(repeated),
			"empty":    listRows([]int{}),
		}
	}

	check := func(t *testing.T, m *Model, rows rowSet, cols []int, src binning.CodeSource) {
		t.Helper()
		dst := f32.New(rows.n, m.Emb.Dim())
		m.gatherTupleVectors(dst, rows, cols, src)
		for i := 0; i < rows.n; i++ {
			r := rows.at(i)
			want := ref.RowVector(r, cols)
			if src == nil {
				local := m.RowVector(r, cols)
				for d := range want {
					if math.Float32bits(local[d]) != math.Float32bits(want[d]) {
						t.Fatalf("row %d: the layout's RowVector differs from the resident one", r)
					}
				}
			}
			for d, v := range dst.Row(i) {
				if math.Float32bits(v) != math.Float32bits(want[d]) {
					t.Fatalf("row %d (position %d) dim %d: gathered %v, RowVector %v", r, i, d, v, want[d])
				}
			}
		}
	}

	names := make([]string, 0, len(layouts))
	for name := range layouts {
		names = append(names, name)
	}
	sort.Strings(names) // a fixed draw order keeps the random row lists reproducible
	for _, name := range names {
		m := layouts[name]
		t.Run(name, func(t *testing.T) {
			// The rows readable without an overlay: every row, except on
			// the remote twins, whose middle shard lives elsewhere.
			var local []int
			lo, hi := 37, 437
			if ss := m.ShardSource(); ss != nil && !ss.Complete() {
				for i := 0; i < ss.NumShards(); i++ {
					if ss.ShardAvailable(i) {
						for r := ss.ShardStart(i); r < ss.ShardStart(i)+ss.ShardRows(i); r++ {
							local = append(local, r)
						}
					}
				}
				lo, hi = ss.ShardStart(0)+5, ss.ShardStart(0)+ss.ShardRows(0)
			} else {
				for r := 0; r < n; r++ {
					local = append(local, r)
				}
			}
			sort.Ints(local)
			for _, cn := range []string{"all", "projection"} {
				cols := colSets[cn]
				for rn, rows := range rowSets(local, lo, hi) {
					t.Run(cn+"/"+rn, func(t *testing.T) { check(t, m, rows, cols, nil) })
				}
				for rn, rows := range rowSets(covered, covered[0], covered[0]+1) {
					t.Run(cn+"/overlay-"+rn, func(t *testing.T) { check(t, m, rows, cols, overlay) })
				}
			}
		})
	}

	full := ref.fullRowVectors()
	for r := 0; r < n; r++ {
		want := ref.RowVector(r, all)
		for d, v := range full.Row(r) {
			if math.Float32bits(v) != math.Float32bits(want[d]) {
				t.Fatalf("full-table matrix row %d dim %d: %v, RowVector %v", r, d, v, want[d])
			}
		}
	}
}

// codeStoreTwin is filterTestModel with its codes read from a code store
// of 64-row blocks, its cells resident.
func codeStoreTwin(t *testing.T) *Model {
	t.Helper()
	m := filterTestModel(t)
	path := filepath.Join(t.TempDir(), "codes")
	if err := m.ExportCodeStore(path, 64); err != nil {
		t.Fatal(err)
	}
	cs, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	if err := m.B.AttachStore(cs); err != nil {
		t.Fatal(err)
	}
	if !m.OutOfCore() {
		t.Fatal("codes still resident after attaching the code store")
	}
	return m
}
