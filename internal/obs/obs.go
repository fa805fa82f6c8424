// Package obs is the decision plane's zero-allocation instrumentation
// layer: lock-free atomic counters, log₂-bucketed latency histograms
// (fixed arrays, atomic adds, snapshot-on-read) with a quantile
// estimator, and a fixed-size per-process trace-span ring.
//
// Everything on a serving hot path — Counter.Add, Histogram.Record —
// is a handful of atomic adds on pre-sized arrays: no maps, no
// mutexes, no allocation (pinned by TestHistogramRecordZeroAlloc and
// the server/client zero-alloc gates). Reads (Snapshot, quantiles,
// Prometheus exposition) pay the aggregation cost instead, which is
// the right trade for a scrape-every-15s consumer.
//
// Trace spans are the exception: they ride a mutex-guarded ring,
// because only sampled requests record spans and a sampled request
// has already agreed to pay for observability.
package obs

import (
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a lock-free event counter: one atomic padded on both sides
// to a cache line of its own, so the fields around it — a neighbouring
// counter, or a sync.Pool read on every lookup — never false-share with
// its adds. The zero value is ready to use; Add is wait-free.
type Counter struct {
	_ [56]byte
	v atomic.Int64
	_ [56]byte
}

// Add accumulates delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the counter's current total.
func (c *Counter) Load() int64 { return c.v.Load() }

// idState seeds span/trace id generation. Ids need to be unique and
// well-mixed, not reproducible — they deliberately do NOT ride the
// repo's seeded RNG streams, so sampling a trace can never perturb a
// deterministic simulation or equivalence run.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) | 1)
}

// NextID returns a process-unique nonzero 64-bit id (splitmix64 over
// an atomic counter — wait-free, allocation-free).
func NextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// EscapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double-quote, and newline get backslash escapes;
// everything else (including arbitrary UTF-8) passes through verbatim.
// Go's %q is NOT this format — it escapes non-printables and non-ASCII
// into Go syntax that Prometheus parsers reject.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
