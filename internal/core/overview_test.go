package core

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"subtab/internal/memgov"
)

// The overview memo: a stateless whole-table selection (local, every row,
// no coverage, column bias or query) chooses its rows and columns once per
// model and display shape; later requests render from the memoized choice.

// overviewSpecs are the eligible shapes the memo tests run: plain, with a
// target column, and with a group quota.
func overviewSpecs() map[string]ExploreSpec {
	return map[string]ExploreSpec{
		"plain":       {},
		"targets":     {Targets: []string{"CANCELLED"}},
		"group-quota": {Fairness: &FairnessOptions{GroupCol: "CANCELLED", MinPerGroup: 1}},
	}
}

// TestOverviewHitEqualsCold runs every eligible shape at every scale
// setting on the resident, paged and locally sharded layouts. Cold selects
// run one at a time on an emptied memo; then every shape and scale runs
// twice on one memo, so each key is filled beside the others: the first
// select fills, the second is a hit, and both equal the cold select byte
// for byte (source rows, columns, cells) — which equals the resident
// model's. A hit hands out its own slices: scribbling on one does not
// reach the next.
func TestOverviewHitEqualsCold(t *testing.T) {
	layouts, _, scales := executionSweep(t)
	specs := map[string]ExploreSpec{}
	for scName, sc := range scales {
		for shape, spec := range overviewSpecs() {
			spec.K, spec.L, spec.Scale = 4, 3, &sc
			specs[shape+" / "+scName] = spec
		}
	}
	want := map[string]string{}
	for _, layout := range []string{"resident", "paged", "sharded-local"} {
		m := layouts[layout]
		cold := map[string]string{}
		for name, spec := range specs {
			p, err := m.plan(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !p.overview {
				t.Fatalf("%s / %s: not planned as an overview", layout, name)
			}
			m.ReleaseVectorCache()
			cold[name] = fpr(mustSelect(t, m, spec))
			if w, ok := want[name]; !ok {
				want[name] = cold[name]
			} else if cold[name] != w {
				t.Errorf("%s / %s: differs from resident:\n got %s\nwant %s", layout, name, cold[name], w)
			}
		}
		m.ReleaseVectorCache()
		for key, spec := range specs {
			name := layout + " / " + key
			first := mustSelect(t, m, spec)
			fills := m.overviewFills.Load()
			hit := mustSelect(t, m, spec)
			if m.overviewFills.Load() != fills {
				t.Fatalf("%s: the second select chose again", name)
			}
			for _, st := range []*SubTable{first, hit} {
				if got := fpr(st); got != cold[key] {
					t.Errorf("%s: differs from the cold select:\n got %s\nwant %s", name, got, cold[key])
				}
			}
			hit.SourceRows[0], hit.ColIdx[0] = -1, -1
			if got := fpr(mustSelect(t, m, spec)); got != fpr(first) {
				t.Errorf("%s: a caller's edit reached the memo:\n got %s\nwant %s", name, got, fpr(first))
			}
		}
	}
}

// TestOverviewMemoBypassed runs every non-overview shape of the execution
// sweep, and every shape on the remote layouts, with the memo poisoned
// under the key the plain select of the same size and scale reads: no
// such select returns the poison (it neither reads the memo) and none
// adds an entry (nor fills it). A local plain select, the control, does
// return the poison.
func TestOverviewMemoBypassed(t *testing.T) {
	layouts, shapes, scales := executionSweep(t)
	const k, l = 4, 3
	poison := overview{rows: []int{0, 0, 0, 0}, cols: []int{0, 1, 2}}
	for layout, m := range layouts {
		local := !m.caps().remote
		for shape, spec := range shapes {
			for scName, sc := range scales {
				spec.K, spec.L, spec.Scale = k, l, &sc
				name := layout + " / " + shape + " / " + scName
				c := m.caps()
				c.remote = false
				plain, err := planSelect(ExploreSpec{K: k, L: l, Scale: &sc}, c)
				if err != nil {
					t.Fatal(err)
				}
				m.ReleaseVectorCache()
				m.overviews.Load().Put(plain.overviewKey(), poison)
				st, err := m.SelectExplore(spec)
				var r *Refusal
				if errors.As(err, &r) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				poisoned := slices.Equal(st.SourceRows, poison.rows)
				if want := local && shape == "plain"; poisoned != want {
					t.Errorf("%s: returned the memo's entry %v, want %v", name, poisoned, want)
				}
				if got, want := m.overviews.Load().Bytes(), overviewBytes(plain.overviewKey(), poison); got != want {
					t.Errorf("%s: memo holds %d bytes, want the poison's %d", name, got, want)
				}
			}
		}
		m.ReleaseVectorCache()
	}
}

// TestOverviewConcurrentFirstSelects starts many first overviews of one
// shape at once on a fresh model: the choice runs once, every caller gets
// the same sub-table in slices of its own, and the memo's bytes are in the
// governor's ledger until a release settles them to zero. Run under -race.
func TestOverviewConcurrentFirstSelects(t *testing.T) {
	m := filterTestModel(t)
	g := memgov.New(0)
	m.SetGovernor(g)
	spec := ExploreSpec{K: 4, L: 3, Targets: []string{"CANCELLED"}, Scale: &ScaleOptions{Threshold: 1, SampleBudget: 200, BatchSize: 64, MaxIter: 20}}
	const callers = 8
	got := make([]*SubTable, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			st, err := m.SelectExplore(spec)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := m.overviewFills.Load(); n != 1 {
		t.Fatalf("%d concurrent first overviews chose %d times, want once", callers, n)
	}
	for i, st := range got {
		if fpr(st) != fpr(got[0]) {
			t.Errorf("caller %d got %s, want %s", i, fpr(st), fpr(got[0]))
		}
		if i > 0 && &st.SourceRows[0] == &got[0].SourceRows[0] {
			t.Errorf("callers 0 and %d share their source rows", i)
		}
	}
	p, err := m.plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := overviewBytes(p.overviewKey(), overview{rows: got[0].SourceRows, cols: got[0].ColIdx})
	if b := g.ClassBytes(memgov.ClassOverviewCache); b != want {
		t.Errorf("overview-cache ledger = %d, want %d", b, want)
	}
	m.ReleaseVectorCache()
	if b, c := g.ClassBytes(memgov.ClassOverviewCache), m.CacheBytes(); b != 0 || c != 0 {
		t.Errorf("after release: overview-cache ledger %d, CacheBytes %d, want 0 and 0", b, c)
	}
}

// TestOverviewMemoHandoff: a model given another's memo (ShareOverviews) —
// a twin over the same parts, as a reload from the same file is — renders
// the memoized overviews without choosing, byte for byte what a cold
// select of a third twin returns, on the exact and the scaled path.
// ReleaseSparingOverviews empties every other cache and keeps the memo;
// ReleaseVectorCache clears it for every model that shares it.
func TestOverviewMemoHandoff(t *testing.T) {
	a := filterTestModel(t)
	twin := func() *Model {
		m, err := Restore(a.T, a.B, a.Emb, a.Opt, a.AffinityData())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	g := memgov.New(0)
	a.SetGovernor(g)
	b := twin()
	b.SetGovernor(g)
	specs := []ExploreSpec{
		{K: 5, L: 3, Targets: []string{"CANCELLED"}},
		{K: 4, L: 3, Scale: &ScaleOptions{Threshold: 1, SampleBudget: 300, BatchSize: 64, MaxIter: 20}},
	}
	first := make([]string, len(specs))
	for i, spec := range specs {
		first[i] = fpr(mustSelect(t, a, spec))
	}
	memo := a.ShareOverviews(nil)
	if got := b.ShareOverviews(memo); got != memo {
		t.Fatal("ShareOverviews returned another memo than the one it was given")
	}
	for i, spec := range specs {
		hit := fpr(mustSelect(t, b, spec))
		if cold := fpr(mustSelect(t, twin(), spec)); hit != cold || hit != first[i] {
			t.Fatalf("shape %d: the handed-off memo served\n %s\nwant %s (cold)\n     %s (first)", i, hit, cold, first[i])
		}
	}
	if n := b.overviewFills.Load(); n != 0 {
		t.Fatalf("the model given the memo chose %d times, want 0", n)
	}
	held := memo.Bytes()
	b.ReleaseSparingOverviews()
	if got := memo.Bytes(); got != held || b.CacheBytes() != held {
		t.Fatalf("after ReleaseSparingOverviews: memo %d bytes, model caches %d, want both %d", got, b.CacheBytes(), held)
	}
	b.ReleaseVectorCache()
	if got, cls := a.ShareOverviews(nil).Bytes(), g.ClassBytes(memgov.ClassOverviewCache); got != 0 || cls != 0 {
		t.Fatalf("after ReleaseVectorCache: shared memo %d bytes, ledger %d, want 0 and 0", got, cls)
	}
}
