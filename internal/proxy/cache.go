package proxy

import (
	"bufio"
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
)

// ResponseCache remembers recent backend answers keyed by request
// hash. It powers profiling of middle tiers whose downstream tier (the
// database) is absent from the profiling environment: "Upon receiving
// a request from the profiler, the proxy computes its hash and mimics
// the existence of the database by looking up the most recent answer
// for the given hash" (paper §3.2.1). Eviction is LRU; lookups exhibit
// good locality because production and profiler see the same requests
// slightly shifted in time.
type ResponseCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*list.Element
	order    *list.List // front = most recent

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key      uint64
	response []byte
}

// NewResponseCache returns an LRU cache holding up to capacity
// responses.
func NewResponseCache(capacity int) (*ResponseCache, error) {
	if capacity <= 0 {
		return nil, errors.New("proxy: cache capacity must be positive")
	}
	return &ResponseCache{
		capacity: capacity,
		entries:  make(map[uint64]*list.Element),
		order:    list.New(),
	}, nil
}

// hashRequest computes the cache key of a request payload.
func hashRequest(req []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(req)
	return h.Sum64()
}

// Put stores (or refreshes) the most recent answer for a request.
func (c *ResponseCache) Put(req, resp []byte) {
	key := hashRequest(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).response = append([]byte(nil), resp...)
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, response: append([]byte(nil), resp...)})
	c.entries[key] = el
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Get returns the most recent answer for a request, if cached.
func (c *ResponseCache) Get(req []byte) ([]byte, bool) {
	key := hashRequest(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return append([]byte(nil), el.Value.(*cacheEntry).response...), true
}

// TierEmulator serves the profiling clone's downstream requests from a
// ResponseCache, mimicking the absent database tier. The protocol is
// line-based: each request is one line, each response one line — a
// deliberate simplification of the length-prefixed framing a
// production implementation would sniff from the stream.
type TierEmulator struct {
	cache    *ResponseCache
	listener net.Listener
	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup

	served atomic.Int64
	missed atomic.Int64
}

// NewTierEmulator binds a listener answering from the given cache.
func NewTierEmulator(addr string, cache *ResponseCache) (*TierEmulator, error) {
	if cache == nil {
		return nil, errors.New("proxy: nil cache")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proxy: tier emulator listen: %w", err)
	}
	return &TierEmulator{cache: cache, listener: ln}, nil
}

// Addr returns the bound address.
func (t *TierEmulator) Addr() net.Addr { return t.listener.Addr() }

// Serve accepts connections until Close.
func (t *TierEmulator) Serve() error {
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handle(conn)
		}()
	}
}

func (t *TierEmulator) handle(conn net.Conn) {
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for scanner.Scan() {
		req := scanner.Bytes()
		if resp, ok := t.cache.Get(req); ok {
			t.served.Add(1)
			_, _ = conn.Write(append(resp, '\n'))
		} else {
			// Cache miss: answer with an empty line. The profiler
			// tolerates "obsolete data" and "minor request
			// permutations"; load generation matters, fidelity
			// does not.
			t.missed.Add(1)
			_, _ = conn.Write([]byte("\n"))
		}
	}
}

// Close stops the emulator.
func (t *TierEmulator) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.listener.Close()
	t.wg.Wait()
	return err
}

// Served and Missed report how many clone requests were answered from
// cache vs answered empty.
func (t *TierEmulator) Served() int64 { return t.served.Load() }

// Missed reports the number of cache-miss responses.
func (t *TierEmulator) Missed() int64 { return t.missed.Load() }
