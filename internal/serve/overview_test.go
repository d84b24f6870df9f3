package serve

import (
	"testing"

	"subtab/internal/core"
)

// TestReplacedOrAppendedTableNeverServesOldOverview: a table's overview
// (its stateless whole-table select) is memoized on its model, and a
// replace or an append swaps in a new model. The next select of the same
// shape must be the new table's: equal to a cold select of a resident
// build of the replacement, and to a cold select of the appended model
// after its caches are released. Each step changes the overview, so an
// old memo entry served by mistake would show.
func TestReplacedOrAppendedTableNeverServesOldOverview(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{Dir: t.TempDir()}), testOptions())
	for _, sc := range []*core.ScaleOptions{nil, scaleForce()} {
		spec := core.ExploreSpec{K: 5, L: 2, Targets: []string{"grp"}, Scale: sc}
		if _, err := svc.AddTable("ov", testTable("ov", 600, 1), nil, Unsharded, true); err != nil {
			t.Fatal(err)
		}
		first := mustServeSelect(t, svc, "ov", spec)
		if again := mustServeSelect(t, svc, "ov", spec); again != first {
			t.Fatalf("repeated overview differs:\n got %s\nwant %s", again, first)
		}

		replacement := testTable("ov", 600, 2)
		if _, err := svc.AddTable("ov", replacement, nil, Unsharded, true); err != nil {
			t.Fatal(err)
		}
		replaced := mustServeSelect(t, svc, "ov", spec)
		cold, err := residentModel(t, replacement).SelectExplore(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := subTableFingerprint(cold); replaced != want || replaced == first {
			t.Fatalf("after replace got %s\nwant %s\n(before: %s)", replaced, want, first)
		}

		if _, _, err := svc.AppendRows("ov", testTable("ov", 600, 3), core.AppendOptions{DriftThreshold: 1}); err != nil {
			t.Fatal(err)
		}
		appended := mustServeSelect(t, svc, "ov", spec)
		m, err := svc.Model("ov")
		if err != nil {
			t.Fatal(err)
		}
		m.ReleaseVectorCache()
		cold, err = m.SelectExplore(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := subTableFingerprint(cold); appended != want || appended == replaced {
			t.Fatalf("after append got %s\nwant %s\n(before: %s)", appended, want, replaced)
		}
	}
}

func mustServeSelect(t *testing.T, svc *Service, name string, spec core.ExploreSpec) string {
	t.Helper()
	st, err := svc.Select(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	return subTableFingerprint(st)
}
