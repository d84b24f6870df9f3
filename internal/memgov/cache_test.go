package memgov

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func byteLen[K any](_ K, b []byte) int64 { return int64(len(b)) }

func TestCacheFillSingleFlight(t *testing.T) {
	g := New(0)
	c := NewCache[string](g, "c", byteLen)
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]byte, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Fill("k", func() ([]byte, error) {
				calls.Add(1)
				<-release
				return make([]byte, 100), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("16 concurrent fills of one key ran fill %d times, want 1", n)
	}
	for i, v := range got {
		if len(v) != 100 || &v[0] != &got[0][0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
	if b, cb := c.Bytes(), g.ClassBytes("c"); b != 100 || cb != 100 {
		t.Fatalf("bytes/class = %d/%d, want 100/100", b, cb)
	}
}

func TestCacheFillsKeysConcurrently(t *testing.T) {
	c := NewCache[int](nil, "c", byteLen)
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	wait := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other key's fill never started: fills of different keys serialised")
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Fill(1, func() ([]byte, error) { close(aStarted); return nil, wait(bStarted) }); err != nil {
			t.Error(err)
		}
	}()
	if _, err := c.Fill(2, func() ([]byte, error) { close(bStarted); return nil, wait(aStarted) }); err != nil {
		t.Error(err)
	}
	wg.Wait()
	for _, k := range []int{1, 2} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d not cached", k)
		}
	}
}

func TestCacheClearOvertakesFill(t *testing.T) {
	g := New(0)
	c := NewCache[string](g, "c", byteLen)
	started, proceed := make(chan struct{}), make(chan struct{})
	done := make(chan []byte)
	go func() {
		v, _ := c.Fill("k", func() ([]byte, error) {
			close(started)
			<-proceed
			return make([]byte, 64), nil
		})
		done <- v
	}()
	<-started
	c.Clear() // must not wait on the fill in flight
	close(proceed)
	if v := <-done; len(v) != 64 {
		t.Fatalf("overtaken fill returned %d bytes to its caller, want 64", len(v))
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a fill that a Clear overtook was inserted")
	}
	if h, cb := c.acct.settled, g.ClassBytes("c"); h != 0 || cb != 0 || c.Bytes() != 0 {
		t.Fatalf("held/class/bytes = %d/%d/%d after overtaken fill, want 0/0/0", h, cb, c.Bytes())
	}
	// The next fill is not overtaken and inserts.
	if _, err := c.Fill("k", func() ([]byte, error) { return make([]byte, 8), nil }); err != nil {
		t.Fatal(err)
	}
	if h := c.acct.settled; h != 8 {
		t.Fatalf("held = %d after refill, want 8", h)
	}
	// A Put during a fill of the same key wins; the landing fill neither
	// overwrites it nor counts its bytes twice.
	started, proceed = make(chan struct{}), make(chan struct{})
	go func() {
		v, _ := c.Fill("p", func() ([]byte, error) { close(started); <-proceed; return make([]byte, 99), nil })
		done <- v
	}()
	<-started
	c.Put("p", make([]byte, 5))
	close(proceed)
	<-done
	if v, _ := c.Get("p"); len(v) != 5 || c.Bytes() != 13 || g.ClassBytes("c") != 13 {
		t.Fatalf("after Put during fill: entry %d bytes, cache %d, class %d; want 5, 13, 13", len(v), c.Bytes(), g.ClassBytes("c"))
	}
}

func TestCacheFailedFillCachesNothing(t *testing.T) {
	g := New(0)
	c := NewCache[string](g, "c", byteLen)
	boom := errors.New("boom")
	if _, err := c.Fill("k", func() ([]byte, error) { return make([]byte, 10), boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	func() {
		defer func() { _ = recover() }()
		c.Fill("k", func() ([]byte, error) { panic("fill panicked") })
	}()
	if _, ok := c.Get("k"); ok || c.Bytes() != 0 || g.Used() != 0 {
		t.Fatalf("failed fills left an entry (bytes %d, ledger %d)", c.Bytes(), g.Used())
	}
	calls := 0
	if _, err := c.Fill("k", func() ([]byte, error) { calls++; return nil, nil }); err != nil || calls != 1 {
		t.Fatalf("fill after failures: err %v, calls %d; want a fresh fill", err, calls)
	}
}

func TestCacheCapClears(t *testing.T) {
	g := New(0)
	c := NewCache[int](g, "c", byteLen)
	for k := 0; k < cacheCap; k++ {
		c.Put(k, make([]byte, 10))
	}
	if b := c.Bytes(); b != 10*cacheCap {
		t.Fatalf("bytes = %d with %d entries, want %d", b, cacheCap, 10*cacheCap)
	}
	c.Put(cacheCap, make([]byte, 3))
	for k := 0; k < cacheCap; k++ {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %d survived the cap", k)
		}
	}
	if _, ok := c.Get(cacheCap); !ok {
		t.Fatal("the entry that hit the cap was not inserted")
	}
	if b, cb := c.Bytes(), g.ClassBytes("c"); b != 3 || cb != 3 {
		t.Fatalf("bytes/class = %d/%d after the cap cleared, want 3/3", b, cb)
	}
}

func TestCacheNilGovernor(t *testing.T) {
	c := NewCache[string](nil, "c", byteLen)
	c.Put("a", make([]byte, 5))
	c.Put("a", make([]byte, 50)) // seed-if-absent: no overwrite
	v, err := c.Fill("b", func() ([]byte, error) { return make([]byte, 7), nil })
	if err != nil || len(v) != 7 {
		t.Fatalf("fill = %d bytes, %v", len(v), err)
	}
	if b := c.Bytes(); b != 12 {
		t.Fatalf("bytes = %d, want 12", b)
	}
	c.Clear()
	if b := c.Bytes(); b != 0 {
		t.Fatalf("bytes = %d after Clear, want 0", b)
	}
}

func TestCacheLateGovern(t *testing.T) {
	c := NewCache[string](nil, "c", byteLen)
	c.Put("a", make([]byte, 40))
	g := New(0)
	c.Govern(g)
	if got := g.ClassBytes("c"); got != 40 {
		t.Fatalf("class = %d after a late Govern, want the 40 resident bytes", got)
	}
	g2 := New(0)
	c.Govern(g2)
	c.Govern(nil)
	c.Put("b", make([]byte, 2))
	if got, got2 := g.ClassBytes("c"), g2.ClassBytes("c"); got != 42 || got2 != 0 {
		t.Fatalf("classes = %d/%d, want 42 on the first governor and 0 on the second", got, got2)
	}
	c.Clear()
	if got := g.Used(); got != 0 {
		t.Fatalf("ledger = %d after Clear, want 0", got)
	}
}
