// Tests for the large-table selection mode at the serving layer: repeat
// selects must be deterministic (same seed, same model => same sub-table),
// concurrent scaled selects against one served model must be race-clean and
// agree with the serial result (this file runs under CI's -race step), and
// the HTTP layer must accept and validate the per-request scale block.
package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"subtab/internal/core"
	"subtab/internal/query"
)

// scaleForce activates the scaled path on any table size, with a budget
// below the test tables' row counts so sampling genuinely happens.
func scaleForce() *core.ScaleOptions {
	return &core.ScaleOptions{Threshold: 1, SampleBudget: 400, BatchSize: 128, MaxIter: 50}
}

func subTableFingerprint(st *core.SubTable) string {
	return fmt.Sprintf("%v|%v|%v|%s", st.SourceRows, st.ColIdx, st.Cols, st.View.Render(nil))
}

func TestServeScaledSelectRepeatDeterminism(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("scaled", testTable("scaled", 2500, 7), nil, false); err != nil {
		t.Fatal(err)
	}
	first, err := svc.Select("scaled", core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.SourceRows) != 6 {
		t.Fatalf("scaled select returned %d rows, want 6", len(first.SourceRows))
	}
	for i := 0; i < 4; i++ {
		st, err := svc.Select("scaled", core.ExploreSpec{K: 6, L: 3, Scale: scaleForce()})
		if err != nil {
			t.Fatal(err)
		}
		if subTableFingerprint(st) != subTableFingerprint(first) {
			t.Fatalf("scaled select run %d diverged:\n got %s\nwant %s",
				i, subTableFingerprint(st), subTableFingerprint(first))
		}
	}
	// The explicit zero override forces the exact path; it must agree with
	// the plain Select entry point.
	exact, err := svc.Select("scaled", core.ExploreSpec{K: 6, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	zeroed, err := svc.Select("scaled", core.ExploreSpec{K: 6, L: 3, Scale: &core.ScaleOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if subTableFingerprint(exact) != subTableFingerprint(zeroed) {
		t.Fatal("zero scale override diverged from the exact path")
	}
}

// TestServeScaledSelectConcurrent hammers one served model with concurrent
// scaled selects (mixed with exact selects and a query-restricted variant)
// and requires every result to match its serial reference. Run under -race
// in CI, this is the "any number of selections against one model" contract
// extended to the scaled path.
func TestServeScaledSelectConcurrent(t *testing.T) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("conc-scaled", testTable("conc-scaled", 3000, 13), nil, false); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Where: []query.Predicate{{Col: "cat", Op: query.Neq, Str: "c2"}}}
	wantWhole, err := svc.Select("conc-scaled", core.ExploreSpec{K: 5, L: 3, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	wantQuery, err := svc.Select("conc-scaled", core.ExploreSpec{Query: q, K: 4, L: 2, Targets: []string{"cat"}, Scale: scaleForce()})
	if err != nil {
		t.Fatal(err)
	}
	wantExact, err := svc.Select("conc-scaled", core.ExploreSpec{K: 5, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 9
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch g % 3 {
				case 0:
					st, err := svc.Select("conc-scaled", core.ExploreSpec{K: 5, L: 3, Scale: scaleForce()})
					if err == nil && subTableFingerprint(st) != subTableFingerprint(wantWhole) {
						err = fmt.Errorf("concurrent scaled select diverged")
					}
					errs[g] = err
				case 1:
					st, err := svc.Select("conc-scaled", core.ExploreSpec{Query: q, K: 4, L: 2, Targets: []string{"cat"}, Scale: scaleForce()})
					if err == nil && subTableFingerprint(st) != subTableFingerprint(wantQuery) {
						err = fmt.Errorf("concurrent scaled query select diverged")
					}
					errs[g] = err
				default:
					st, err := svc.Select("conc-scaled", core.ExploreSpec{K: 5, L: 3})
					if err == nil && subTableFingerprint(st) != subTableFingerprint(wantExact) {
						err = fmt.Errorf("concurrent exact select diverged while scaled selects ran")
					}
					errs[g] = err
				}
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestHTTPSelectScale drives the scale block through the HTTP layer: a
// valid block selects successfully and deterministically, a negative knob
// is a 400.
func TestHTTPSelectScale(t *testing.T) {
	srv := newTestServer(t)
	up, err := http.Post(srv.URL+"/tables?name=big", "text/csv", strings.NewReader(testCSV(1200)))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", up.StatusCode)
	}
	req := map[string]any{
		"k": 5, "l": 2,
		"scale": map[string]any{"threshold": 1, "sample_budget": 300},
	}
	var first, second struct {
		SourceRows []int `json:"source_rows"`
	}
	doJSON(t, "POST", srv.URL+"/tables/big/select", req, http.StatusOK, &first)
	if len(first.SourceRows) != 5 {
		t.Fatalf("scaled HTTP select returned %d rows, want 5", len(first.SourceRows))
	}
	doJSON(t, "POST", srv.URL+"/tables/big/select", req, http.StatusOK, &second)
	if fmt.Sprint(first.SourceRows) != fmt.Sprint(second.SourceRows) {
		t.Fatalf("scaled HTTP select not deterministic: %v vs %v", first.SourceRows, second.SourceRows)
	}
	bad := map[string]any{"k": 5, "l": 2, "scale": map[string]any{"threshold": -1}}
	doJSON(t, "POST", srv.URL+"/tables/big/select", bad, http.StatusBadRequest, nil)
}
