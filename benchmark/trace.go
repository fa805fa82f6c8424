package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// All spans are recorded here, in the benchmark, around calls into the
// system's exported functions; tracing inside the program is a later
// issue.

// noSpan is the parent of a root span.
const noSpan = -1

// spanKind names a span. Spans hold the kind, not the string, so the
// ring is pointer-free: the collector never scans it, and digesting a
// VM's spans switches on an integer.
type spanKind uint8

const (
	spanRun spanKind = iota
	spanStep
	spanLookup
	spanGet
	spanPut
	spanTune
	spanKMeans
	spanRelearn
)

var spanNames = [...]string{
	spanRun:     "sim.run",
	spanStep:    "core.controller_step",
	spanLookup:  "core.source_lookup",
	spanGet:     "core.source_get",
	spanPut:     "core.source_put",
	spanTune:    "core.tune",
	spanKMeans:  "ml.kmeans_auto",
	spanRelearn: "core.relearn",
}

func (k spanKind) MarshalJSON() ([]byte, error) { return json.Marshal(spanNames[k]) }

// span is one timed call. Start and End are nanoseconds since the
// ring's epoch; Parent is the ID of the span that caused it; VM groups
// the spans of one VM's run (-1 outside a fleet).
type span struct {
	ID     int      `json:"id"`
	Kind   spanKind `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Parent int      `json:"parent"`
	VM     int      `json:"vm"`
}

// spanRing keeps the most recent spans in memory and is dumped as JSON
// when the run ends.
type spanRing struct {
	mu    sync.Mutex
	epoch time.Time
	buf   []span
	next  int // total spans recorded; buf[next%cap] is the next slot
}

const spanRingCapacity = 1 << 16

func newSpanRing() *spanRing {
	return &spanRing{epoch: time.Now(), buf: make([]span, 0, spanRingCapacity)}
}

// record appends one root span outside any VM.
func (r *spanRing) record(kind spanKind, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.append(span{Kind: kind, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: noSpan, VM: -1})
}

func (r *spanRing) append(s span) {
	s.ID = r.next
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next%cap(r.buf)] = s
	}
	r.next++
}

// flush moves one VM's locally buffered spans into the ring under one
// lock acquisition: the traced VM driver buffers per VM so the hot
// path never contends on the ring. Local IDs (indices into spans) and
// local parents are rebased onto ring IDs.
func (r *spanRing) flush(spans []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.next
	for _, s := range spans {
		if s.Parent != noSpan {
			s.Parent += base
		}
		r.append(s)
	}
}

// spanDump is the JSON document the ring is written out as.
type spanDump struct {
	Workload string `json:"workload"`
	Recorded int    `json:"recorded"`
	Kept     int    `json:"kept"`
	Spans    []span `json:"spans"`
}

// dump writes the ring to path, oldest span first.
func (r *spanRing) dump(path, workload string) error {
	r.mu.Lock()
	doc := spanDump{Workload: workload, Recorded: r.next, Kept: len(r.buf)}
	if len(r.buf) == cap(r.buf) {
		at := r.next % cap(r.buf)
		doc.Spans = append(append(make([]span, 0, len(r.buf)), r.buf[at:]...), r.buf[:at]...)
	} else {
		doc.Spans = append([]span(nil), r.buf...)
	}
	r.mu.Unlock()
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
