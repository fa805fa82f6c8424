package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram: log₂
// nanosecond buckets. Bucket 0 covers [0ns, 2ns), bucket i covers
// [2^i ns, 2^(i+1) ns), and the last bucket absorbs everything from
// ~9.2 minutes up.
const NumBuckets = 40

// Histogram is a lock-free log₂-bucketed latency histogram: fixed
// arrays, atomic adds on the write path, snapshot-on-read. The zero
// value is ready to use; a Record is two atomic adds (bucket + sum)
// and never allocates. Padding on both sides keeps the fields around a
// histogram off the cache lines its adds write.
type Histogram struct {
	_       [56]byte
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64 // total nanoseconds
	_       [56]byte
}

// bucketOf maps a nanosecond value to its log₂ bucket.
func bucketOf(ns uint64) int {
	if ns < 2 {
		return 0
	}
	b := bits.Len64(ns) - 1 // ns in [2^b, 2^(b+1))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns bucket i's exclusive upper bound in seconds
// (the Prometheus `le` value; the last bucket's real bound is +Inf).
func BucketUpper(i int) float64 {
	return float64(uint64(1)<<uint(i+1)) / 1e9
}

// bucketLower is bucket i's inclusive lower bound in nanoseconds.
func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(uint64(1) << uint(i))
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(uint64(ns))].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the histogram into one consistent-enough view
// (per-bucket atomic loads; concurrent writers may land between
// loads — fine for telemetry).
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for b := range h.buckets {
		n := h.buckets[b].Load()
		s.Counts[b] = n
		s.Count += n
	}
	s.SumNS = h.sum.Load()
	return s
}

// Snapshot is one point-in-time view of a Histogram, detached from
// the live atomics. The zero value is an empty histogram.
type Snapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	SumNS  int64
}

// Merge accumulates another snapshot (e.g. summing one histogram per
// replica into a tier view, or one per fleet worker into the run's).
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
}

// Mean returns the average observation.
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the
// bucket holding the target rank and interpolating linearly inside
// it. The estimate is always within the true sample's bucket, i.e.
// off by at most a factor of 2 — the precision log₂ buckets buy.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		n := s.Counts[i]
		if n == 0 {
			continue
		}
		// Ranks [cum, cum+n) live in bucket i.
		if rank < float64(cum+n) {
			lo := bucketLower(i)
			hi := BucketUpper(i) * 1e9
			frac := (rank - float64(cum) + 0.5) / float64(n)
			if frac > 1 {
				frac = 1
			}
			return time.Duration(lo + frac*(hi-lo))
		}
		cum += n
	}
	return time.Duration(s.SumNS) // unreachable unless counts raced
}

// Summary condenses a snapshot into the JSON shape bench reports and
// stats endpoints embed.
type Summary struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
}

// Summary computes the quantile digest.
func (s Snapshot) Summary() Summary {
	return Summary{
		Count:  s.Count,
		MeanUS: float64(s.Mean()) / 1e3,
		P50US:  float64(s.Quantile(0.50)) / 1e3,
		P90US:  float64(s.Quantile(0.90)) / 1e3,
		P99US:  float64(s.Quantile(0.99)) / 1e3,
	}
}

// WritePrometheus renders the snapshot as one labeled series of a
// Prometheus `histogram` metric: cumulative `_bucket{...,le="..."}`
// lines over every fixed bucket, then `_sum` and `_count`. labels is
// the pre-escaped label body without braces (e.g.
// `template="web",transport="tcp"`); empty means no labels beyond le.
// WriteExposition writes the # HELP / # TYPE header once per family.
func (s Snapshot) WritePrometheus(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		le := "+Inf"
		if i < NumBuckets-1 {
			le = strconv.FormatFloat(BucketUpper(i), 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	brace := ""
	if labels != "" {
		brace = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, brace, strconv.FormatFloat(float64(s.SumNS)/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, brace, cum)
}

// Metric is one family of a Prometheus text exposition: the name, the
// # HELP text, the # TYPE ("counter", "gauge" or "histogram") and the
// family's samples. A family with no samples still announces itself.
type Metric struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample is one series of a family. Labels is the pre-escaped label
// body without braces (EscapeLabel the values), empty for none; Value
// is read for counters and gauges, Hist for histograms.
type Sample struct {
	Labels string
	Value  float64
	Hist   Snapshot
}

// Scalar is an unlabeled single-series counter or gauge family.
func Scalar(name, help, typ string, v float64) Metric {
	return Metric{Name: name, Help: help, Type: typ, Samples: []Sample{{Value: v}}}
}

// Hist is an unlabeled single-series histogram family.
func Hist(name, help string, snap Snapshot) Metric {
	return Metric{Name: name, Help: help, Type: "histogram", Samples: []Sample{{Hist: snap}}}
}

// WriteExposition renders families in the Prometheus text format
// (version 0.0.4) — the one place # HELP and # TYPE lines are written,
// each once per family and ahead of its samples, as the format wants.
func WriteExposition(w io.Writer, families []Metric) {
	for _, m := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Type)
		for _, s := range m.Samples {
			switch {
			case m.Type == "histogram":
				s.Hist.WritePrometheus(w, m.Name, s.Labels)
			case s.Labels == "":
				fmt.Fprintf(w, "%s %g\n", m.Name, s.Value)
			default:
				fmt.Fprintf(w, "%s{%s} %g\n", m.Name, s.Labels, s.Value)
			}
		}
	}
}
