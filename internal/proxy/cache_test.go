package proxy

import (
	"bufio"
	"fmt"
	"net"
	"testing"
)

func TestResponseCacheBasics(t *testing.T) {
	c, err := NewResponseCache(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get([]byte("q1")); ok {
		t.Error("empty cache should miss")
	}
	c.Put([]byte("q1"), []byte("a1"))
	got, ok := c.Get([]byte("q1"))
	if !ok || string(got) != "a1" {
		t.Errorf("Get=(%q,%v)", got, ok)
	}
	// Most recent answer wins.
	c.Put([]byte("q1"), []byte("a1-new"))
	got, _ = c.Get([]byte("q1"))
	if string(got) != "a1-new" {
		t.Errorf("expected refreshed answer, got %q", got)
	}
	if c.order.Len() != 1 {
		t.Errorf("Len=%d want 1", c.order.Len())
	}
}

func TestResponseCacheValidation(t *testing.T) {
	if _, err := NewResponseCache(0); err == nil {
		t.Error("capacity 0 should error")
	}
}

func TestResponseCacheLRUEviction(t *testing.T) {
	c, _ := NewResponseCache(2)
	c.Put([]byte("a"), []byte("1"))
	c.Put([]byte("b"), []byte("2"))
	// Touch "a" so "b" is the LRU.
	if _, ok := c.Get([]byte("a")); !ok {
		t.Fatal("a should be cached")
	}
	c.Put([]byte("c"), []byte("3"))
	if _, ok := c.Get([]byte("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get([]byte("a")); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get([]byte("c")); !ok {
		t.Error("c should be cached")
	}
}

func TestResponseCacheHitRate(t *testing.T) {
	c, _ := NewResponseCache(4)
	c.Put([]byte("x"), []byte("y"))
	c.Get([]byte("x"))       // hit
	c.Get([]byte("missing")) // miss
	if got := c.hitRate(); got != 0.5 {
		t.Errorf("HitRate=%v want 0.5", got)
	}
	fresh, _ := NewResponseCache(1)
	if fresh.hitRate() != 0 {
		t.Error("fresh cache hit rate should be 0")
	}
}

func TestResponseCacheIsolation(t *testing.T) {
	c, _ := NewResponseCache(2)
	req := []byte("req")
	resp := []byte("resp")
	c.Put(req, resp)
	resp[0] = 'X' // caller mutates its buffer
	got, _ := c.Get(req)
	if string(got) != "resp" {
		t.Errorf("cache must copy responses, got %q", got)
	}
	got[0] = 'Z' // mutate returned copy
	again, _ := c.Get(req)
	if string(again) != "resp" {
		t.Errorf("cache must return copies, got %q", again)
	}
}

func TestHashRequestDistinct(t *testing.T) {
	if hashRequest([]byte("a")) == hashRequest([]byte("b")) {
		t.Error("distinct requests should hash differently")
	}
	if hashRequest([]byte("same")) != hashRequest([]byte("same")) {
		t.Error("equal requests must hash equally")
	}
}

func TestTierEmulator(t *testing.T) {
	cache, _ := NewResponseCache(16)
	// Production path recently answered these queries.
	cache.Put([]byte("SELECT 1"), []byte("one"))
	cache.Put([]byte("SELECT 2"), []byte("two"))

	te, err := NewTierEmulator("127.0.0.1:0", cache)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = te.Serve() }()
	defer te.Close()

	conn, err := net.Dial("tcp", te.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)

	ask := func(q string) string {
		fmt.Fprintf(conn, "%s\n", q)
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	if got := ask("SELECT 1"); got != "one\n" {
		t.Errorf("cached answer=%q want %q", got, "one\n")
	}
	if got := ask("SELECT 2"); got != "two\n" {
		t.Errorf("cached answer=%q want %q", got, "two\n")
	}
	// Miss: empty line (obsolete/absent data tolerated).
	if got := ask("SELECT 3"); got != "\n" {
		t.Errorf("miss answer=%q want empty line", got)
	}
	if te.Served() != 2 || te.Missed() != 1 {
		t.Errorf("served=%d missed=%d want 2/1", te.Served(), te.Missed())
	}
}

func TestTierEmulatorValidation(t *testing.T) {
	if _, err := NewTierEmulator("127.0.0.1:0", nil); err == nil {
		t.Error("nil cache should error")
	}
}

func TestTierEmulatorCloseIdempotent(t *testing.T) {
	cache, _ := NewResponseCache(1)
	te, err := NewTierEmulator("127.0.0.1:0", cache)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = te.Serve() }()
	if err := te.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := te.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// hitRate returns the fraction of Get calls that hit.
func (c *ResponseCache) hitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
