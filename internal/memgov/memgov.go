// Package memgov is the process-wide byte-accounted memory governor.
//
// A serving process holds several kinds of resident bytes that all grow
// with tenant count and table size: the model store's cached models, each
// model's full-table tuple-vector cache, memoized candidate samples and
// mined rules, the coordinator's scatter/gather overlay cache, and every
// in-flight request's working set (sampled-vector slabs, response cells).
// Before this package they were governed by three uncoordinated knobs (an
// entry-counted LRU, a per-request slab spill budget since removed, and
// nothing at all for the vector caches); the governor replaces that with
// one ledger:
//
//   - Resident consumers report growth and shrinkage under a named class
//     (Grow/Shrink). Growth past the budget triggers the registered
//     eviction callbacks — reclaimers that drop cold resident state, such
//     as the model store's cold-end LRU entries — until the ledger fits
//     again (or nothing more can be reclaimed; resident growth is never
//     refused, because the bytes already exist — admission control is what
//     keeps the overdraw from compounding).
//   - Requests reserve their estimated transient working set up front
//     (Admit). A reservation that cannot fit even after eviction fails
//     with ErrOverBudget, which the HTTP layer maps to 429 + Retry-After —
//     load sheds at the door instead of OOMing in the middle of a select.
//   - Limiter bounds per-key (per-table) request concurrency, so one hot
//     tenant cannot monopolize the process.
//   - Cache is the one byte-weighted, single-flight cache every per-model
//     and per-coordinator cache is built on; it settles its bytes under
//     its class as entries come and go.
//
// All Governor and Limiter methods are safe for concurrent use and are
// no-ops on a nil receiver, so call sites need no "is a governor
// configured?" branches.
//
// Locking contract: eviction callbacks run WITHOUT the governor lock held
// and may take their owner's locks (the model store's evictor takes the
// store mutex). Consumers must therefore never call Grow or Admit while
// holding a lock their own evictor acquires; Shrink never runs evictors and
// is safe anywhere.
package memgov

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known accounting classes. Classes are open-ended strings; these
// constants just keep the repo's consumers consistent (README "Memory
// model" documents each).
const (
	// ClassModels is the model store's resident models (table cells, bin
	// codes, embedding matrices, affinity matrix).
	ClassModels = "models"
	// ClassVectorCache is the per-model full-table tuple-vector cache
	// (rows × dim × 4 bytes, the largest per-tenant cache).
	ClassVectorCache = "vector-cache"
	// ClassSampleCache is the per-model memoized candidate samples of the
	// scaled selection path.
	ClassSampleCache = "sample-cache"
	// ClassCoordCache is a coordinator's per-(budget,cols) scatter/gather
	// sample cache (candidate rows + code overlay).
	ClassCoordCache = "coord-cache"
	// ClassRulesCache is the per-model memoized association rules, one
	// entry per mining option set (each rule carries an n-bit tuple set).
	ClassRulesCache = "rules-cache"
	// ClassOverviewCache is the memoized whole-table selections, one memo
	// per table generation (a serving store keeps it across the
	// generation's evictions and reloads), one entry (k source rows and l
	// column indices) per display shape.
	ClassOverviewCache = "overview-cache"
	// ClassRequests is in-flight requests' admitted working sets
	// (sampled-vector slabs, response assembly).
	ClassRequests = "requests"
)

// ErrOverBudget is returned by Admit when a reservation cannot fit under
// the budget even after eviction. RetryAfter is the client back-off hint
// the HTTP layer forwards as a Retry-After header.
type ErrOverBudget struct {
	Need       int64
	Budget     int64
	Used       int64
	RetryAfter time.Duration
}

func (e *ErrOverBudget) Error() string {
	return fmt.Sprintf("memgov: cannot admit %d bytes (budget %d, used %d)", e.Need, e.Budget, e.Used)
}

// Evictor is a reclaim callback: try to release at least need resident
// bytes, returning the bytes actually released (best effort; 0 is fine).
// Evictors run without the governor lock held, possibly concurrently with
// other governor traffic, and must themselves report what they released via
// Shrink on behalf of the classes they drained — the return value only
// tells the reclaim loop whether continuing is useful.
type Evictor func(need int64) int64

type evictorEntry struct {
	class string
	fn    Evictor
}

// Governor is the process-wide ledger. The zero value and the nil pointer
// are both valid "no governor" instances: accounting and admission become
// no-ops.
type Governor struct {
	budget int64 // <= 0: unlimited (accounting still runs, admission always passes)

	mu       sync.Mutex
	used     int64
	peak     int64
	classes  map[string]int64
	evictors []evictorEntry

	admitted   atomic.Int64
	rejected   atomic.Int64
	reclaims   atomic.Int64
	reclaimedB atomic.Int64
}

// New returns a governor enforcing the given byte budget; budget <= 0
// builds an unlimited governor that still keeps the ledger (useful for
// observability without enforcement).
func New(budget int64) *Governor {
	return &Governor{budget: budget, classes: make(map[string]int64)}
}

// Budget returns the configured budget (0 = unlimited). Nil-safe.
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// Used returns the currently accounted resident + admitted bytes. Nil-safe.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// Peak returns the high-water mark of Used over the governor's lifetime.
func (g *Governor) Peak() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// ClassBytes returns the bytes currently accounted under class.
func (g *Governor) ClassBytes(class string) int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.classes[class]
}

// Stats is an observability snapshot of the ledger.
type Stats struct {
	BudgetBytes int64            `json:"budget_bytes"`
	UsedBytes   int64            `json:"used_bytes"`
	PeakBytes   int64            `json:"peak_bytes"`
	Classes     map[string]int64 `json:"classes"`
	Admitted    int64            `json:"admitted"`
	Rejected    int64            `json:"rejected"`
	Reclaims    int64            `json:"reclaims"`
	Reclaimed   int64            `json:"reclaimed_bytes"`
}

// Stats returns a snapshot. Nil-safe (zero stats).
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	classes := make(map[string]int64, len(g.classes))
	for k, v := range g.classes {
		if v != 0 {
			classes[k] = v
		}
	}
	st := Stats{
		BudgetBytes: g.budget,
		UsedBytes:   g.used,
		PeakBytes:   g.peak,
		Classes:     classes,
	}
	g.mu.Unlock()
	st.Admitted = g.admitted.Load()
	st.Rejected = g.rejected.Load()
	st.Reclaims = g.reclaims.Load()
	st.Reclaimed = g.reclaimedB.Load()
	return st
}

// RegisterEvictor adds a reclaim callback under the given class name. The
// class names the consumer the evictor drains: a reclaim triggered by class
// X skips X's own evictors, so a consumer growing cannot be asked to evict
// itself mid-insert (the deadlock- and livelock-prone shape). Callbacks run
// in registration order. Nil-safe no-op.
func (g *Governor) RegisterEvictor(class string, fn Evictor) {
	if g == nil || fn == nil {
		return
	}
	g.mu.Lock()
	g.evictors = append(g.evictors, evictorEntry{class: class, fn: fn})
	g.mu.Unlock()
}

// Grow records n freshly resident bytes under class and, when the ledger
// exceeds the budget, runs eviction callbacks (other classes') until it
// fits or nothing more frees. Growth itself never fails — the bytes exist
// whether or not the ledger likes it; see the package comment. n <= 0 is a
// no-op. Nil-safe. Must not be called while holding a lock the caller's own
// evictor acquires.
func (g *Governor) Grow(class string, n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.mu.Lock()
	g.classes[class] += n
	g.used += n
	over := int64(0)
	if g.budget > 0 && g.used > g.budget {
		over = g.used - g.budget
	}
	if g.used > g.peak && over == 0 {
		g.peak = g.used
	}
	g.mu.Unlock()
	if over > 0 {
		g.reclaim(class, over)
		// The peak is recorded after reclamation, so it reflects what the
		// process actually held onto, not the instant before eviction caught
		// up. (Transient overshoot is bounded by one consumer's largest
		// single Grow.)
		g.mu.Lock()
		if g.used > g.peak {
			g.peak = g.used
		}
		g.mu.Unlock()
	}
}

// Shrink records n bytes under class as no longer resident. The subtraction
// is exact, not clamped: a revocation racing its own grant (see account)
// may transiently drive a class negative, and clamping would turn that
// transient into a permanent phantom balance. Never runs evictors; safe
// under any caller lock. Nil-safe.
func (g *Governor) Shrink(class string, n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.mu.Lock()
	g.classes[class] -= n
	g.used -= n
	g.mu.Unlock()
}

// Admit reserves n transient bytes for a request's working set under class
// (typically ClassRequests), evicting resident consumers if needed. It
// returns a release func on success and *ErrOverBudget when the
// reservation cannot fit even after reclaim. n <= 0 admits trivially.
// Nil-safe (always admits).
func (g *Governor) Admit(class string, n int64) (func(), error) {
	if g == nil || n <= 0 {
		return func() {}, nil
	}
	if g.budget > 0 && n <= g.budget {
		// Fast path needs headroom; reclaim once if we don't have it.
		g.mu.Lock()
		fits := g.used+n <= g.budget
		need := g.used + n - g.budget
		g.mu.Unlock()
		if !fits {
			g.reclaim(class, need)
		}
	}
	g.mu.Lock()
	if g.budget > 0 && g.used+n > g.budget {
		used := g.used
		g.mu.Unlock()
		g.rejected.Add(1)
		return nil, &ErrOverBudget{Need: n, Budget: g.budget, Used: used, RetryAfter: time.Second}
	}
	g.classes[class] += n
	g.used += n
	if g.used > g.peak {
		g.peak = g.used
	}
	g.mu.Unlock()
	g.admitted.Add(1)
	var once sync.Once
	return func() { once.Do(func() { g.Shrink(class, n) }) }, nil
}

// reclaim runs eviction callbacks (skipping skipClass's own) until need
// bytes were reported released or every evictor returned nothing.
func (g *Governor) reclaim(skipClass string, need int64) {
	g.mu.Lock()
	evs := make([]evictorEntry, len(g.evictors))
	copy(evs, g.evictors)
	g.mu.Unlock()
	g.reclaims.Add(1)
	remaining := need
	for _, e := range evs {
		if remaining <= 0 {
			break
		}
		if e.class == skipClass {
			continue
		}
		freed := e.fn(remaining)
		if freed > 0 {
			g.reclaimedB.Add(freed)
			remaining -= freed
		}
	}
}

// account reconciles one Cache's resident bytes with the governor. A cache
// cannot call Grow under its own lock (the governor's evictors may take
// that lock — see the package locking contract), so it mutates under its
// own mutex, bumps a generation counter, records the new resident total,
// unlocks, and then calls settle(gen, total). Settles can arrive out of
// order when a release races a build; the generation makes the
// reconciliation idempotent: a stale settle (lower gen than the last
// applied) is discarded, so a release that lands after an in-flight grant
// still revokes it. Shrink being exact (unclamped) is what lets the
// out-of-order Grow/Shrink pairs net to the true total.
type account struct {
	g     *Governor
	class string

	mu      sync.Mutex
	gen     uint64
	settled int64
}

// account returns a reconciliation handle for class. Nil-safe (a nil
// governor yields a nil account, whose methods are no-ops).
func (g *Governor) account(class string) *account {
	if g == nil {
		return nil
	}
	return &account{g: g, class: class}
}

// settle reconciles the account to target resident bytes as of generation
// gen, calling Grow/Shrink for the delta. Stale settles (gen lower than one
// already applied) are discarded. Must not be called while holding a lock
// the owning consumer's evictor acquires (Grow may run evictors). Nil-safe.
func (a *account) settle(gen uint64, target int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if gen < a.gen {
		a.mu.Unlock()
		return
	}
	a.gen = gen
	delta := target - a.settled
	a.settled = target
	a.mu.Unlock()
	if delta > 0 {
		a.g.Grow(a.class, delta)
	} else if delta < 0 {
		a.g.Shrink(a.class, -delta)
	}
}

// Limiter bounds concurrent holders per key — the per-table request
// concurrency limit. A nil Limiter admits everything.
type Limiter struct {
	max int

	mu  sync.Mutex
	cur map[string]int
	rej atomic.Int64
}

// NewLimiter returns a limiter admitting up to maxPerKey concurrent holders
// of each key; maxPerKey <= 0 returns nil (unlimited).
func NewLimiter(maxPerKey int) *Limiter {
	if maxPerKey <= 0 {
		return nil
	}
	return &Limiter{max: maxPerKey, cur: make(map[string]int)}
}

// Acquire takes a slot for key. It returns (release, true) on success and
// (nil, false) when key is already at its concurrency limit — the caller
// sheds the request (429 + Retry-After) instead of queueing unboundedly.
// Nil-safe: a nil limiter always admits.
func (l *Limiter) Acquire(key string) (func(), bool) {
	if l == nil {
		return func() {}, true
	}
	l.mu.Lock()
	if l.cur[key] >= l.max {
		l.mu.Unlock()
		l.rej.Add(1)
		return nil, false
	}
	l.cur[key]++
	l.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			if l.cur[key]--; l.cur[key] <= 0 {
				delete(l.cur, key)
			}
			l.mu.Unlock()
		})
	}, true
}

// Rejected returns the cumulative count of shed acquisitions. Nil-safe.
func (l *Limiter) Rejected() int64 {
	if l == nil {
		return 0
	}
	return l.rej.Load()
}
