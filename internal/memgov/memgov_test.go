package memgov

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestGrowShrinkLedger(t *testing.T) {
	g := New(1000)
	g.Grow("a", 300)
	g.Grow("b", 200)
	if got := g.Used(); got != 500 {
		t.Fatalf("used = %d, want 500", got)
	}
	if got := g.ClassBytes("a"); got != 300 {
		t.Fatalf("class a = %d, want 300", got)
	}
	g.Shrink("a", 100)
	if got, want := g.Used(), int64(400); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
	// Shrink is exact, not clamped: an over-shrink goes negative so that a
	// revocation racing its own grant (account.settle ordering) nets to the
	// true total once the grant lands.
	g.Shrink("b", 500)
	if got := g.ClassBytes("b"); got != -300 {
		t.Fatalf("class b = %d, want -300 after over-shrink", got)
	}
	g.Grow("b", 300)
	if got := g.ClassBytes("b"); got != 0 {
		t.Fatalf("class b = %d, want 0 once the racing grant lands", got)
	}
	if got := g.Used(); got != 200 {
		t.Fatalf("used = %d, want 200", got)
	}
}

func TestAccountSettle(t *testing.T) {
	g := New(0)
	a := g.account("cache")
	a.settle(1, 100)
	if got := g.ClassBytes("cache"); got != 100 {
		t.Fatalf("class = %d after first settle, want 100", got)
	}
	a.settle(2, 250)
	if got, held := g.ClassBytes("cache"), a.settled; got != 250 || held != 250 {
		t.Fatalf("class/held = %d/%d, want 250/250", got, held)
	}
	// A release (gen 4) that lands before a stale build (gen 3) wins: the
	// stale settle is discarded, so the revocation sticks.
	a.settle(4, 0)
	a.settle(3, 999)
	if got := g.ClassBytes("cache"); got != 0 {
		t.Fatalf("class = %d after release-then-stale-build, want 0", got)
	}
	var nilAcct *account
	nilAcct.settle(1, 100) // must be inert, not panic
	if (*Governor)(nil).account("x") != nil {
		t.Fatal("nil governor must yield a nil account")
	}
}

func TestNilGovernorIsNoop(t *testing.T) {
	var g *Governor
	g.Grow("a", 100)
	g.Shrink("a", 100)
	release, err := g.Admit("r", 1<<40)
	if err != nil {
		t.Fatalf("nil governor rejected admission: %v", err)
	}
	release()
	if g.Used() != 0 || g.Budget() != 0 || g.Peak() != 0 {
		t.Fatal("nil governor reported non-zero ledger")
	}
	var l *Limiter
	rel, ok := l.Acquire("t")
	if !ok {
		t.Fatal("nil limiter rejected acquire")
	}
	rel()
}

func TestAdmitRejectsOverBudget(t *testing.T) {
	g := New(1000)
	g.Grow("resident", 400)
	release, err := g.Admit(ClassRequests, 500)
	if err != nil {
		t.Fatalf("admit within budget failed: %v", err)
	}
	if _, err := g.Admit(ClassRequests, 200); err == nil {
		t.Fatal("admit past budget succeeded with no evictors")
	} else {
		var ob *ErrOverBudget
		if !errors.As(err, &ob) {
			t.Fatalf("error type = %T, want *ErrOverBudget", err)
		}
		if ob.RetryAfter <= 0 {
			t.Fatal("ErrOverBudget carries no Retry-After hint")
		}
	}
	release()
	if _, err := g.Admit(ClassRequests, 200); err != nil {
		t.Fatalf("admit after release failed: %v", err)
	}
	st := g.Stats()
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Fatalf("stats admitted/rejected = %d/%d, want 2/1", st.Admitted, st.Rejected)
	}
}

func TestAdmitEvictsResidents(t *testing.T) {
	g := New(1000)
	resident := int64(800)
	g.Grow("cache", resident)
	g.RegisterEvictor("cache", func(need int64) int64 {
		freed := min(need, resident)
		resident -= freed
		g.Shrink("cache", freed)
		return freed
	})
	// 600 bytes need 400 reclaimed from the cache.
	release, err := g.Admit(ClassRequests, 600)
	if err != nil {
		t.Fatalf("admit with evictable residents failed: %v", err)
	}
	defer release()
	if got := g.ClassBytes("cache"); got != 400 {
		t.Fatalf("cache class = %d after eviction, want 400", got)
	}
	if used := g.Used(); used > g.Budget() {
		t.Fatalf("used %d exceeds budget %d after admit", used, g.Budget())
	}
	if st := g.Stats(); st.Reclaims == 0 || st.Reclaimed < 400 {
		t.Fatalf("reclaim stats = %+v, want >=1 reclaim freeing >=400", st)
	}
}

func TestGrowTriggersEvictionButNeverFails(t *testing.T) {
	g := New(1000)
	other := int64(700)
	g.RegisterEvictor("other", func(need int64) int64 {
		freed := min(need, other)
		other -= freed
		g.Shrink("other", freed)
		return freed
	})
	g.Grow("other", 700)
	// Growing a different class evicts "other" down to fit.
	g.Grow("mine", 600)
	if used := g.Used(); used > 1000 {
		t.Fatalf("used = %d after grow-with-eviction, want <= budget", used)
	}
	if got := g.ClassBytes("mine"); got != 600 {
		t.Fatalf("mine = %d, want 600 (growth is never refused)", got)
	}
	// A class's own grow skips its own evictor: grow "other" beyond budget
	// and the ledger overdraws instead of self-evicting mid-insert.
	g.Grow("other", 2000)
	if got := g.ClassBytes("other"); got < 2000 {
		t.Fatalf("other = %d, want >= 2000 (self-eviction must be skipped)", got)
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	g := New(0) // unlimited: ledger only
	g.Grow("a", 100)
	g.Grow("a", 400)
	g.Shrink("a", 450)
	g.Grow("a", 10)
	if got := g.Peak(); got != 500 {
		t.Fatalf("peak = %d, want 500", got)
	}
}

func TestLimiter(t *testing.T) {
	l := NewLimiter(2)
	r1, ok1 := l.Acquire("t")
	r2, ok2 := l.Acquire("t")
	if !ok1 || !ok2 {
		t.Fatal("first two acquisitions must succeed")
	}
	if _, ok := l.Acquire("t"); ok {
		t.Fatal("third concurrent acquisition must shed")
	}
	if _, ok := l.Acquire("u"); !ok {
		t.Fatal("limits are per key; another table must admit")
	}
	r1()
	r1() // double release is a no-op, not a double free
	if _, ok := l.Acquire("t"); !ok {
		t.Fatal("release must reopen the slot")
	}
	r2()
	if got := l.Rejected(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if NewLimiter(0) != nil {
		t.Fatal("non-positive max must build the unlimited (nil) limiter")
	}
}

// TestConcurrentLedgerInvariant hammers Grow/Shrink/Admit from many
// goroutines and asserts the ledger never exceeds the budget once
// admission control is the only source of growth — the loadgen acceptance
// invariant in miniature.
func TestConcurrentLedgerInvariant(t *testing.T) {
	const budget = 1 << 20
	g := New(budget)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				release, err := g.Admit(ClassRequests, int64(1024*(w+1)))
				if err != nil {
					continue
				}
				if used := g.Used(); used > budget {
					t.Errorf("used %d exceeded budget %d", used, budget)
				}
				release()
			}
		}(w)
	}
	wg.Wait()
	if g.Used() != 0 {
		t.Fatalf("used = %d after all releases, want 0", g.Used())
	}
	if g.Peak() > budget {
		t.Fatalf("peak %d exceeded budget %d", g.Peak(), budget)
	}
}

// TestConcurrentGrowEvict races resident growth against an evictor that
// drains a shared pool, checking the accounting converges and no counter
// goes negative.
func TestConcurrentGrowEvict(t *testing.T) {
	g := New(64 << 10)
	var mu sync.Mutex
	pool := int64(0)
	g.RegisterEvictor("pool", func(need int64) int64 {
		mu.Lock()
		freed := min(need, pool)
		pool -= freed
		mu.Unlock()
		g.Shrink("pool", freed)
		return freed
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				mu.Lock()
				pool += 512
				mu.Unlock()
				g.Grow("pool", 512)
				if release, err := g.Admit(ClassRequests, 4096); err == nil {
					release()
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	want := pool
	mu.Unlock()
	if got := g.ClassBytes("pool"); got != want {
		t.Fatalf("pool class = %d, evictor-tracked pool = %d", got, want)
	}
	if g.ClassBytes(ClassRequests) != 0 {
		t.Fatalf("requests class = %d after all releases, want 0", g.ClassBytes(ClassRequests))
	}
}

func TestErrOverBudgetMessage(t *testing.T) {
	err := &ErrOverBudget{Need: 10, Budget: 5, Used: 4}
	if msg := err.Error(); !strings.Contains(msg, "10") || !strings.Contains(msg, "5") {
		t.Fatalf("unhelpful error message: %q", msg)
	}
}
