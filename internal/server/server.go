// Package server is dejavud's decision service: the network-facing
// layer that owns learned signature repositories behind versioned
// atomic handles — one per service template — serves classify/lookup
// decisions over the shared wire protocol (internal/wire) at
// interactive-traffic timescales, and relearns a template in the
// background when its online drift monitor sees too many unforeseen
// signatures.
//
// Design constraints, in order:
//
//   - The steady-state decision path (decode → route → classify/lookup
//     → encode) performs zero heap allocations: pooled request
//     scratch, the wire package's allocation-free binary codec, a
//     copy-on-write template table read with one atomic load, and the
//     repository's own pooled classify scratch (PR 2).
//   - Decisions have one encoding, the binary columnar frame
//     (application/x-dejavu-batch). The Content-Type is a guard, not a
//     negotiation: anything else is answered 415.
//   - Requests route by template id — the wire header's template
//     field — so one daemon serves many service templates with
//     independent snapshots, drift monitors, and relearn
//     single-flights. An empty template id routes to the sole
//     template, or to the one named "default".
//   - Readers never block on learning. Each repository lives behind a
//     core.Handle; a drift-triggered relearn builds the replacement
//     completely off the request path and publishes it with one
//     atomic pointer store. In-flight requests finish on the snapshot
//     they started with.
//   - Repositories outlive the process: load-on-start plus
//     snapshot-on-shutdown (and POST /v1/snapshot any time) via
//     core.SaveRepository/LoadRepository, one file per template. A
//     remote control plane can also POST /v1/install to publish a
//     freshly learned repository into a running daemon — the fleet's
//     remote mode uses this to ship each template's learning result.
//
// The HTTP handler is the shared admin plane (wire.Plane) over this
// package's template table; docs/ARCHITECTURE.md § Endpoints lists
// every route, its method, body limit and document.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/wire"
)

// transport indexes the per-template decide-latency histograms: the
// two ways a decision reaches the daemon.
type transport uint8

const (
	transportBinary transport = iota // HTTP
	transportTCP                     // raw-TCP stream plane
	numTransports
)

// transportNames are the Prometheus label values.
var transportNames = [numTransports]string{"binary", "tcp"}

// DefaultTemplate is the template id a single-template Config.Handle
// registers under, and the id an empty wire template field resolves
// to when a template of this name exists.
const DefaultTemplate = "default"

// RelearnFunc rebuilds one template's repository from recently
// observed signature rows. It runs on a background goroutine, at most
// one at a time per template.
type RelearnFunc func(template string, events []metrics.Event, rows [][]float64) (*core.Repository, error)

// Config assembles a Server.
type Config struct {
	// Handle, when set, registers a single template under
	// DefaultTemplate — the one-service deployment shape.
	Handle *core.Handle
	// Templates is the initial multi-template set (template id →
	// versioned handle). May be combined with Handle; may be empty,
	// in which case the daemon starts install-only.
	Templates map[string]*core.Handle
	// Drift tunes the online drift monitor (shared by every
	// template; each template gets its own monitor instance).
	Drift DriftConfig
	// Relearn, when set, is invoked (single-flight per template)
	// whenever a template's drift window crosses the threshold; the
	// returned repository is swapped in. Nil disables online
	// re-learning.
	Relearn RelearnFunc
	// SnapshotPath is where /v1/snapshot and Snapshot() persist
	// repositories; empty disables snapshots. A "%s" is substituted
	// with the template id; without one, a multi-template server
	// derives "<base>-<template><ext>" (the sole template of a
	// single-template server uses the path verbatim).
	SnapshotPath string
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// template is one service template's serving state.
type template struct {
	name   string
	handle *core.Handle
	drift  *driftMonitor
	ring   *signatureRing
	flight parallel.SingleFlight

	relearns     atomic.Int64
	relearnFails atomic.Int64

	// lat is the decide-latency histogram per transport: a Record is
	// a few atomic adds, which is what keeps the instrumented decide
	// path at 0 allocs/op (TestDecideZeroAllocInstrumented).
	lat [numTransports]obs.Histogram
}

// templateSet is the immutable routing table; installs publish a new
// copy, the decision path reads it with one atomic load.
type templateSet struct {
	byName map[string]*template
	names  []string // sorted
	// def resolves an empty template id: the sole template, else the
	// one named DefaultTemplate, else nil.
	def *template
}

func (ts *templateSet) resolve(name []byte) (*template, error) {
	if len(name) == 0 {
		if ts.def == nil {
			if len(ts.byName) == 0 {
				return nil, errors.New("server: no templates installed")
			}
			return nil, fmt.Errorf("server: request names no template and the server serves %d", len(ts.byName))
		}
		return ts.def, nil
	}
	if t, ok := ts.byName[string(name)]; ok { // no []byte->string alloc in a map index
		return t, nil
	}
	return nil, fmt.Errorf("server: unknown template %q", name)
}

// scratch is the pooled per-request state of the decision path.
type scratch struct {
	body []byte
	req  wire.Request
	resp wire.Response
	out  []byte
	sig  core.Signature
	// rows and results carry a lookup frame through
	// Repository.LookupRows.
	rows    [][]float64
	results []core.LookupResult
}

// Server implements the decision service over swap-safe repository
// handles. Create with New, expose via Handler.
type Server struct {
	cfg       Config
	templates atomic.Pointer[templateSet]
	installMu sync.Mutex // serializes installs (copy-on-write above)
	pool      sync.Pool
	// plane is the HTTP handler. Its span ring is the per-process trace
	// ring: sampled decisions (the Dejavu-Trace header /
	// wire.StreamFlagTrace envelopes) append their server hop there.
	plane *wire.Plane
	start time.Time
	// verbatimTemplate is the template whose snapshot file is the
	// configured path verbatim: the sole template at construction
	// time. Frozen then — a runtime install must not silently move an
	// existing template's snapshot file, or the next start (which
	// derives paths from its own initial template set) would resume
	// from a stale file.
	verbatimTemplate string

	classifyReqs atomic.Int64
	lookupReqs   atomic.Int64
	putReqs      atomic.Int64
	getReqs      atomic.Int64
	installs     atomic.Int64
	badRequests  atomic.Int64
	snapshots    atomic.Int64
	snapshotMu   sync.Mutex
	// TCP plane reply accounting, bumped once per flush (tcp.go).
	tcpEnvelopes atomic.Int64
	tcpFlushes   atomic.Int64

	// Control-plane duration histograms (off the decide path).
	relearnDur  obs.Histogram
	installDur  obs.Histogram
	snapshotDur obs.Histogram
}

// New validates the configuration and assembles the service.
func New(cfg Config) (*Server, error) {
	cfg.Drift.defaults()
	s := &Server{cfg: cfg, start: time.Now()}
	set := &templateSet{byName: map[string]*template{}}
	if cfg.Handle != nil {
		set.byName[DefaultTemplate] = s.newTemplate(DefaultTemplate, cfg.Handle)
	}
	for name, h := range cfg.Templates {
		if name == "" {
			return nil, errors.New("server: template id must not be empty")
		}
		if h == nil {
			return nil, fmt.Errorf("server: template %q has a nil handle", name)
		}
		if _, dup := set.byName[name]; dup {
			return nil, fmt.Errorf("server: template %q configured twice", name)
		}
		set.byName[name] = s.newTemplate(name, h)
	}
	if len(set.byName) == 1 {
		for name := range set.byName {
			s.verbatimTemplate = name
		}
	}
	s.templates.Store(set.finish())
	s.pool.New = func() any { return &scratch{} }
	// An error from the template table means the request was bad: 400.
	p := wire.NewPlane("dejavud", wire.DefaultMaxBody, http.StatusBadRequest, &s.badRequests, s.metricFamilies)
	s.plane = p
	p.Decision(s.handleDecision)
	p.Admin(s, nil)
	p.Handle(http.MethodGet, "/v1/health", 0, func(w http.ResponseWriter, _ *http.Request) {
		p.Reply(w, s.HealthSnapshot(), nil)
	})
	p.Handle(http.MethodGet, "/v1/dump", 0, s.handleDump)
	p.Handle(http.MethodPost, "/v1/snapshot", 0, func(w http.ResponseWriter, _ *http.Request) {
		results, err := s.Snapshot()
		p.Reply(w, results, err)
	})
	return s, nil
}

// newTemplate assembles the serving state around a handle.
func (s *Server) newTemplate(name string, h *core.Handle) *template {
	width := len(h.Current().Repo.EventsRef())
	return &template{
		name:   name,
		handle: h,
		drift:  newDriftMonitor(s.cfg.Drift),
		ring:   newSignatureRing(recentCapacity, width, sampleStride),
	}
}

// finish derives the lookup aids from byName.
func (ts *templateSet) finish() *templateSet {
	ts.names = ts.names[:0]
	for name := range ts.byName {
		ts.names = append(ts.names, name)
	}
	sort.Strings(ts.names)
	switch {
	case len(ts.byName) == 1:
		ts.def = ts.byName[ts.names[0]]
	default:
		ts.def = ts.byName[DefaultTemplate]
	}
	return ts
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.plane }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// handleDecision is the hot-path HTTP adapter: between the plane's body
// read and its response write runs the allocation-free decide().
func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request, lookup bool) {
	if lookup {
		s.lookupReqs.Add(1)
	} else {
		s.classifyReqs.Add(1)
	}
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	hop, ok := s.plane.BeginDecision(w, r, &sc.body)
	if !ok {
		return
	}
	out, err := s.decide(sc, lookup, transportBinary)
	s.plane.EndDecision(w, lookup, hop, out, err)
}

// decide parses sc.body, routes it to a template, and serves one
// decision per signature from a single repository snapshot. This is
// the steady-state decision path: it performs zero heap allocations
// once the scratch buffers have warmed up (pinned by TestDecideZeroAlloc
// and TestDecideZeroAllocInstrumented), including the latency
// histogram record — two atomic adds per batch.
func (s *Server) decide(sc *scratch, lookup bool, tr transport) ([]byte, error) {
	start := time.Now()
	if err := sc.req.DecodeBinary(sc.body); err != nil {
		return nil, err
	}
	tpl, err := s.templates.Load().resolve(sc.req.Template)
	if err != nil {
		return nil, err
	}
	cur := tpl.handle.Current()
	repo := cur.Repo
	events := repo.EventsRef()
	// Validate the whole batch before serving any of it: a request
	// that will be rejected must not feed the drift monitor or the
	// relearn signature ring (junk prefix rows of repeatedly rejected
	// batches could otherwise close a drift window and relearn on
	// garbage).
	for i := 0; i < sc.req.Rows(); i++ {
		if n := len(sc.req.Row(i)); n != len(events) {
			return nil, fmt.Errorf("server: signature %d has %d values, template %q expects %d",
				i, n, tpl.name, len(events))
		}
	}
	sc.resp.Reset()
	sc.resp.Version = cur.Version
	sc.resp.Lookup = lookup
	if lookup {
		// A lookup frame is served in one batched repository pass.
		sc.rows = sc.rows[:0]
		for i := 0; i < sc.req.Rows(); i++ {
			sc.rows = append(sc.rows, sc.req.Row(i))
		}
		if cap(sc.results) < len(sc.rows) {
			sc.results = make([]core.LookupResult, len(sc.rows))
		}
		results := sc.results[:len(sc.rows)]
		if err := repo.LookupRows(sc.req.Bucket, sc.rows, results); err != nil {
			return nil, err
		}
		for i := range results {
			res := &results[i]
			d := wire.Decision{
				Class:      res.Class,
				Certainty:  res.Certainty,
				Unforeseen: res.Unforeseen,
				Hit:        res.Hit,
			}
			if res.Hit {
				d.Type = res.Allocation.Type.ID()
				d.Count = res.Allocation.Count
			}
			sc.resp.Results = append(sc.resp.Results, d)
		}
	} else {
		sig := &sc.sig
		sig.Events = events
		for i := 0; i < sc.req.Rows(); i++ {
			sig.Values = sc.req.Row(i)
			class, certainty, unf, err := repo.Classify(sig)
			if err != nil {
				return nil, err
			}
			sc.resp.Results = append(sc.resp.Results, wire.Decision{Class: class, Certainty: certainty, Unforeseen: unf})
		}
	}
	unforeseen := 0
	for i := range sc.resp.Results {
		if sc.resp.Results[i].Unforeseen {
			unforeseen++
		}
	}
	// The relearn ring and the drift monitor are fed once per batch,
	// after every row is decided: their shared counters cost one atomic
	// add each per request, not per row.
	tpl.ring.observeBatch(&sc.req, sc.resp.Results, unforeseen)
	if tpl.drift.observeBatch(int64(len(sc.resp.Results)), int64(unforeseen)) {
		s.triggerRelearn(tpl)
	}
	sc.out = sc.resp.AppendBinary(sc.out[:0])
	tpl.lat[tr].Record(time.Since(start))
	return sc.out, nil
}

// triggerRelearn launches the template's background rebuild unless
// one is already in flight. The decision path only pays for this call
// when a drift window actually closes over threshold.
func (s *Server) triggerRelearn(tpl *template) {
	if s.cfg.Relearn == nil {
		return
	}
	tpl.flight.TryGo(func() {
		rows := tpl.ring.snapshot()
		if len(rows) < minRelearnRows {
			return
		}
		relearnStart := time.Now()
		cur := tpl.handle.Current()
		repo, err := s.cfg.Relearn(tpl.name, cur.Repo.EventsRef(), rows)
		if err != nil {
			tpl.relearnFails.Add(1)
			s.logf("dejavud: template %s: relearn failed: %v", tpl.name, err)
			return
		}
		// Publish under the install mutex, and only if this template
		// entry is still the live one: a concurrent /v1/install
		// replaced both the repository and the drift state, so a
		// rebuild clustered from the pre-install signature ring must
		// be discarded, not swapped over the operator's fresh install
		// (the handle is shared between the old and new entries).
		s.installMu.Lock()
		if s.templates.Load().byName[tpl.name] != tpl {
			s.installMu.Unlock()
			s.logf("dejavud: template %s: discarding drift relearn superseded by an install", tpl.name)
			return
		}
		v, err := tpl.handle.Swap(repo)
		s.installMu.Unlock()
		if err != nil {
			tpl.relearnFails.Add(1)
			return
		}
		tpl.relearns.Add(1)
		s.relearnDur.Record(time.Since(relearnStart))
		s.logf("dejavud: template %s: drift relearn swapped in version %d (%d classes from %d signatures)",
			tpl.name, v, repo.Classes(), len(rows))
	})
}

// resolveTemplateName routes a control-endpoint template string.
func (s *Server) resolveTemplateName(name string) (*template, error) {
	return s.templates.Load().resolve([]byte(name))
}

// Put stores a tuned allocation — the client side of the DejaVu
// protocol's miss path (tune, then share the result).
func (s *Server) Put(req wire.PutRequest) (wire.PutReply, error) {
	s.putReqs.Add(1)
	tpl, err := s.resolveTemplateName(req.Template)
	if err != nil {
		return wire.PutReply{}, err
	}
	typ, err := cloud.TypeByName(req.Type)
	if err != nil {
		return wire.PutReply{}, err
	}
	cur := tpl.handle.Current()
	if err := cur.Repo.Put(req.Class, req.Bucket, cloud.Allocation{Type: typ, Count: req.Count}); err != nil {
		return wire.PutReply{}, err
	}
	return wire.PutReply{Version: cur.Version, Entries: cur.Repo.Len()}, nil
}

// Get fetches a cached allocation by (class, bucket).
func (s *Server) Get(req wire.GetRequest) (wire.GetReply, error) {
	s.getReqs.Add(1)
	tpl, err := s.resolveTemplateName(req.Template)
	if err != nil {
		return wire.GetReply{}, err
	}
	cur := tpl.handle.Current()
	alloc, ok := cur.Repo.Get(req.Class, req.Bucket)
	if !ok {
		return wire.GetReply{Version: cur.Version}, nil
	}
	return wire.GetReply{Version: cur.Version, Hit: true, Type: alloc.Type.Name, Count: alloc.Count}, nil
}

// InstallAt publishes a serialized repository (core.SaveRepository
// bytes) under the template id: the remote control plane's way to ship
// a learning result into a running daemon. Installing over an existing
// template swaps (version increments, in-flight readers finish on their
// snapshot); a new name creates the template. at == 0 means the next
// local version; otherwise the version is forced — the replicated
// tier's way of keeping every replica of a template on the same version
// number even across replica restarts (version must not go backwards;
// re-publishing the current version replaces content without a version
// change).
func (s *Server) InstallAt(name string, data []byte, at uint64) (wire.InstallReply, error) {
	repo, err := core.LoadRepository(bytes.NewReader(data))
	if err != nil {
		return wire.InstallReply{}, err
	}
	version, err := s.install(name, repo, at)
	if err != nil {
		return wire.InstallReply{}, err
	}
	s.installs.Add(1)
	s.logf("dejavud: installed template %s version %d (%d classes, %d entries)",
		name, version, repo.Classes(), repo.Len())
	return wire.InstallReply{Template: name, Version: version, Classes: repo.Classes(), Entries: repo.Len()}, nil
}

// install publishes repo under the template id, creating or swapping.
// at == 0 means "next local version"; otherwise the version is forced
// (replicated-tier alignment).
func (s *Server) install(name string, repo *core.Repository, at uint64) (uint64, error) {
	start := time.Now()
	defer func() { s.installDur.Record(time.Since(start)) }()
	s.installMu.Lock()
	defer s.installMu.Unlock()
	old := s.templates.Load()
	next := &templateSet{byName: make(map[string]*template, len(old.byName)+1)}
	for n, t := range old.byName {
		next.byName[n] = t
	}
	var version uint64
	if existing, ok := old.byName[name]; ok {
		var v uint64
		var err error
		if at != 0 {
			err = existing.handle.SwapAt(repo, at)
			v = at
		} else {
			v, err = existing.handle.Swap(repo)
		}
		if err != nil {
			return 0, err
		}
		version = v
		// The drift state described the replaced repository (and the
		// ring's row width may no longer match): start fresh.
		next.byName[name] = &template{
			name:   name,
			handle: existing.handle,
			drift:  newDriftMonitor(s.cfg.Drift),
			ring:   newSignatureRing(recentCapacity, len(repo.EventsRef()), sampleStride),
		}
		next.byName[name].relearns.Store(existing.relearns.Load())
		next.byName[name].relearnFails.Store(existing.relearnFails.Load())
	} else {
		var h *core.Handle
		var err error
		if at != 0 {
			h, err = core.NewHandleAt(repo, at)
			version = at
		} else {
			h, err = core.NewHandle(repo)
			version = 1
		}
		if err != nil {
			return 0, err
		}
		next.byName[name] = s.newTemplate(name, h)
	}
	s.templates.Store(next.finish())
	return version, nil
}

// templateStats assembles one template's counters. Counter loads are
// individually atomic, not mutually consistent — fine for telemetry.
func templateStats(t *template) wire.TemplateStats {
	cur := t.handle.Current()
	hits, misses := cur.Repo.LookupCounts()
	return wire.TemplateStats{
		Template:      t.name,
		Version:       cur.Version,
		Classes:       cur.Repo.Classes(),
		Entries:       cur.Repo.Len(),
		Hits:          hits,
		Misses:        misses,
		HitRate:       cur.Repo.HitRate(),
		Decisions:     t.drift.decisions.Load(),
		DriftWindows:  t.drift.windows.Load(),
		LastDriftRate: t.drift.LastWindowRate(),
		DriftTriggers: t.drift.triggers.Load(),
		Relearns:      t.relearns.Load(),
		RelearnFails:  t.relearnFails.Load(),
		Relearning:    t.flight.Busy(),
		RecentRows:    t.ring.Len(),
	}
}

// StatsSnapshot assembles the statistics of the default-routed
// template (the sole one on a single-template server). When no
// default resolves — several templates, none named "default" — the
// template-level fields stay zero and only the server-wide counters
// are meaningful; use StatsFor to get the error instead.
func (s *Server) StatsSnapshot() wire.Stats {
	st, _ := s.StatsFor("")
	return st
}

// StatsFor assembles the statistics for one template ("" = default).
func (s *Server) StatsFor(name string) (wire.Stats, error) {
	st := wire.Stats{
		Templates:     len(s.templates.Load().byName),
		ClassifyReqs:  s.classifyReqs.Load(),
		LookupReqs:    s.lookupReqs.Load(),
		PutReqs:       s.putReqs.Load(),
		GetReqs:       s.getReqs.Load(),
		Installs:      s.installs.Load(),
		BadRequests:   s.badRequests.Load(),
		Snapshots:     s.snapshots.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	tpl, err := s.resolveTemplateName(name)
	if err != nil {
		return st, err
	}
	st.TemplateStats = templateStats(tpl)
	return st, nil
}

// Templates lists every installed template, sorted by id; the error is
// always nil (wire.Backend's other implementation asks a replica).
func (s *Server) Templates() ([]wire.TemplateInfo, error) {
	set := s.templates.Load()
	out := make([]wire.TemplateInfo, 0, len(set.names))
	for _, name := range set.names {
		t := set.byName[name]
		cur := t.handle.Current()
		out = append(out, wire.TemplateInfo{
			Template: name,
			Version:  cur.Version,
			Classes:  cur.Repo.Classes(),
			Entries:  cur.Repo.Len(),
			Events:   cur.Repo.Events(),
		})
	}
	return out, nil
}

// metricFamilies is the /metrics table. Server totals are unlabeled;
// per-template series carry a template label — except on a
// single-template server, which keeps the historical unlabeled names
// so existing scrapes survive the multi-template refactor. Label values
// use the exposition format's own escaping (backslash, quote, newline —
// obs.EscapeLabel), not Go's %q, whose non-ASCII escapes Prometheus
// parsers reject. Decide latency is a real `histogram` metric, one
// series per template × transport, plus control-plane duration
// histograms; the whole output is held to the exposition grammar by
// TestMetricsTextFormatLint.
func (s *Server) metricFamilies() []obs.Metric {
	set := s.templates.Load()
	fams := []obs.Metric{
		obs.Scalar("dejavud_templates", "Installed service templates.", "gauge", float64(len(set.byName))),
		obs.Scalar("dejavud_classify_requests_total", "POST /v1/classify requests.", "counter", float64(s.classifyReqs.Load())),
		obs.Scalar("dejavud_lookup_requests_total", "POST /v1/lookup requests.", "counter", float64(s.lookupReqs.Load())),
		obs.Scalar("dejavud_put_requests_total", "POST /v1/put requests.", "counter", float64(s.putReqs.Load())),
		obs.Scalar("dejavud_get_requests_total", "POST /v1/get requests.", "counter", float64(s.getReqs.Load())),
		obs.Scalar("dejavud_installs_total", "POST /v1/install repositories published.", "counter", float64(s.installs.Load())),
		obs.Scalar("dejavud_bad_requests_total", "Rejected requests.", "counter", float64(s.badRequests.Load())),
		obs.Scalar("dejavud_snapshots_total", "Repository snapshots written.", "counter", float64(s.snapshots.Load())),
		obs.Scalar("dejavud_tcp_response_envelopes_total", "Response envelopes written on the TCP plane.", "counter", float64(s.tcpEnvelopes.Load())),
		obs.Scalar("dejavud_tcp_response_flushes_total", "Writes that carried them (envelopes/flushes = replies per write).", "counter", float64(s.tcpFlushes.Load())),
		obs.Scalar("dejavud_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(s.start).Seconds()),
	}

	stats := make([]wire.TemplateStats, 0, len(set.names))
	labels := make([]string, len(set.names))
	for i, name := range set.names {
		stats = append(stats, templateStats(set.byName[name]))
		if len(set.names) > 1 {
			labels[i] = `template="` + obs.EscapeLabel(name) + `"`
		}
	}
	for _, m := range []struct {
		name, help, typ string
		value           func(wire.TemplateStats) float64
	}{
		{"dejavud_repo_version", "Version of the live repository snapshot.", "gauge", func(t wire.TemplateStats) float64 { return float64(t.Version) }},
		{"dejavud_repo_classes", "Workload classes in the live repository.", "gauge", func(t wire.TemplateStats) float64 { return float64(t.Classes) }},
		{"dejavud_repo_entries", "Cached (class, bucket) allocations.", "gauge", func(t wire.TemplateStats) float64 { return float64(t.Entries) }},
		{"dejavud_repo_hits_total", "Repository lookup hits (live version).", "counter", func(t wire.TemplateStats) float64 { return float64(t.Hits) }},
		{"dejavud_repo_misses_total", "Repository lookup misses (live version).", "counter", func(t wire.TemplateStats) float64 { return float64(t.Misses) }},
		{"dejavud_decisions_total", "Decisions served (one per signature).", "counter", func(t wire.TemplateStats) float64 { return float64(t.Decisions) }},
		{"dejavud_drift_windows_total", "Closed drift observation windows.", "counter", func(t wire.TemplateStats) float64 { return float64(t.DriftWindows) }},
		{"dejavud_drift_unforeseen_rate", "Unforeseen rate of the last closed window.", "gauge", func(t wire.TemplateStats) float64 { return t.LastDriftRate }},
		{"dejavud_drift_triggers_total", "Windows that crossed the relearn threshold.", "counter", func(t wire.TemplateStats) float64 { return float64(t.DriftTriggers) }},
		{"dejavud_relearns_total", "Background relearns swapped in.", "counter", func(t wire.TemplateStats) float64 { return float64(t.Relearns) }},
		{"dejavud_relearn_failures_total", "Background relearns that failed.", "counter", func(t wire.TemplateStats) float64 { return float64(t.RelearnFails) }},
	} {
		fam := obs.Metric{Name: m.name, Help: m.help, Type: m.typ}
		for i, ts := range stats {
			fam.Samples = append(fam.Samples, obs.Sample{Labels: labels[i], Value: m.value(ts)})
		}
		fams = append(fams, fam)
	}

	// Decide latency: per template × transport, only transports that
	// have served (so an HTTP-only deployment isn't buried in empty TCP
	// series; Prometheus treats appearing series as starting at 0).
	lat := obs.Metric{
		Name: "dejavud_decide_latency_seconds", Type: "histogram",
		Help: "Decide path latency (decode, route, classify/lookup, encode) per batch.",
	}
	for _, name := range set.names {
		tpl := set.byName[name]
		for tr := transport(0); tr < numTransports; tr++ {
			if snap := tpl.lat[tr].Snapshot(); snap.Count > 0 {
				lat.Samples = append(lat.Samples, obs.Sample{
					Labels: `template="` + obs.EscapeLabel(name) + `",transport="` + transportNames[tr] + `"`,
					Hist:   snap,
				})
			}
		}
	}
	return append(fams, lat,
		obs.Hist("dejavud_relearn_duration_seconds", "Background drift relearns that swapped in.", s.relearnDur.Snapshot()),
		obs.Hist("dejavud_install_duration_seconds", "POST /v1/install publish durations.", s.installDur.Snapshot()),
		obs.Hist("dejavud_snapshot_duration_seconds", "Per-template snapshot write durations.", s.snapshotDur.Snapshot()))
}

// SnapshotResult reports one persisted template.
type SnapshotResult struct {
	Template string `json:"template"`
	Version  uint64 `json:"version"`
	Path     string `json:"path"`
}

// SnapshotPathFor derives the snapshot file for one template from a
// configured path pattern: a "%s" is substituted with the template
// id; otherwise the sole-at-construction template uses the pattern
// verbatim (the historical single-template layout — stable across
// runtime installs) and every other template gets
// "<base>-<template><ext>". Exported so daemons resolve the same
// file at load-on-start that the server writes at snapshot time.
func SnapshotPathFor(pattern, template string, sole bool) string {
	if strings.Contains(pattern, "%s") {
		return fmt.Sprintf(pattern, template)
	}
	if sole {
		return pattern
	}
	if i := strings.LastIndexByte(pattern, '.'); i > strings.LastIndexByte(pattern, '/') {
		return pattern[:i] + "-" + template + pattern[i:]
	}
	return pattern + "-" + template
}

// Snapshot persists every template's live repository to its
// SnapshotPath-derived file atomically (temp file + rename). Used by
// POST /v1/snapshot and by graceful shutdown.
func (s *Server) Snapshot() ([]SnapshotResult, error) {
	if s.cfg.SnapshotPath == "" {
		return nil, errors.New("server: no snapshot path configured")
	}
	s.snapshotMu.Lock()
	defer s.snapshotMu.Unlock()
	set := s.templates.Load()
	out := make([]SnapshotResult, 0, len(set.names))
	for _, name := range set.names {
		cur := set.byName[name].handle.Current()
		path := SnapshotPathFor(s.cfg.SnapshotPath, name, name == s.verbatimTemplate)
		writeStart := time.Now()
		if err := writeSnapshot(cur.Repo, path); err != nil {
			return out, fmt.Errorf("server: snapshot template %s: %w", name, err)
		}
		s.snapshotDur.Record(time.Since(writeStart))
		s.snapshots.Add(1)
		out = append(out, SnapshotResult{Template: name, Version: cur.Version, Path: path})
	}
	return out, nil
}

// writeSnapshot persists one repository with the temp+rename dance.
func writeSnapshot(repo *core.Repository, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := core.SaveRepository(repo, bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before rename: without it, a crash shortly after the
	// rename can leave an empty or truncated file under the final
	// name on journaled filesystems — exactly the torn state the
	// temp+rename dance exists to prevent.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// HealthSnapshot assembles the health document.
func (s *Server) HealthSnapshot() wire.Health {
	set := s.templates.Load()
	h := wire.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Templates:     make(map[string]wire.HealthTemplate, len(set.names)),
		Relearning:    s.Relearning(),
	}
	for _, name := range set.names {
		cur := set.byName[name].handle.Current()
		h.Templates[name] = wire.HealthTemplate{Version: cur.Version, Entries: cur.Repo.Len()}
	}
	return h
}

// handleDump streams one template's live repository as
// {"version":N,"repo":<core.SaveRepository JSON>} — the read half of
// /v1/install. The replicated tier uses it to resync a rejoining
// replica from a healthy donor instead of keeping learning results
// around, and to fan out a drift relearn that one elected replica
// computed. The version rides inside the body so lean clients need no
// response-header plumbing.
func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	tpl, err := s.resolveTemplateName(r.URL.Query().Get("template"))
	if err != nil {
		s.plane.Fail(w, err)
		return
	}
	cur := tpl.handle.Current()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"version":%d,"repo":`, cur.Version)
	if err := core.SaveRepository(cur.Repo, w); err != nil {
		// Headers are gone; all we can do is log and cut the body short
		// (the truncated JSON fails to parse client-side).
		s.logf("dejavud: template %s: dump failed: %v", tpl.name, err)
		return
	}
	_, _ = io.WriteString(w, "}\n")
}

// Relearning reports whether any template's background rebuild is in
// flight.
func (s *Server) Relearning() bool {
	set := s.templates.Load()
	for _, t := range set.byName {
		if t.flight.Busy() {
			return true
		}
	}
	return false
}
