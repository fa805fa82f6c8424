package proxy

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// DecisionFront is the duplicating proxy lifted from the byte-stream
// layer to the decision layer, built entirely on the unified protocol
// stack: it accepts wire-protocol decision requests over HTTP,
// forwards them to an upstream dejavud through the internal/client
// library (pooled connections, retry/backoff), and relays the reply.
// It keeps the paper's §3.2.1 duplicate-and-discard trick:
// a sampled subset of decision batches is mirrored to a profiling
// clone daemon on a bounded asynchronous queue whose replies are
// dropped, so profiling a candidate repository build can never
// backpressure production decisions.
//
// The front is the horizontal-scaling seam: swapping Upstream for a
// replica.Registry turns it into a dejavud load balancer —
// health-checked round-robin with failover — without touching
// clients. In replicated mode the front also
// exposes the tier's control plane: installs fan out with the
// registry's publish-then-flip protocol, puts fan to every replica,
// and /v1/health reports per-replica states. The handler is the same
// admin plane (wire.Plane) dejavud serves, over the registry instead of
// a template table; docs/ARCHITECTURE.md § Endpoints lists the routes.
type DecisionFrontConfig struct {
	// Upstream serves the real decisions. Exactly one of Upstream and
	// Replicas must be set.
	Upstream *client.Client
	// Replicas routes decisions over a replicated dejavud tier
	// instead of a single upstream. The front does not own the
	// registry — the caller closes it after closing the front.
	Replicas *replica.Registry
	// Clone, when set, receives mirrored decision batches; replies
	// are dropped.
	Clone *client.Client
	// SampleEvery mirrors one in every N batches (default 1).
	SampleEvery int
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// cloneQueue bounds the mirror backlog, in batches, before drops.
const cloneQueue = 256

// DecisionFrontStats reports front activity. All counters cumulative.
type DecisionFrontStats struct {
	Batches     int64 `json:"batches"`
	Decisions   int64 `json:"decisions"`
	Errors      int64 `json:"errors"`
	Mirrored    int64 `json:"mirrored_batches"`
	MirrorDrops int64 `json:"mirror_drops"`
	MirrorFails int64 `json:"mirror_failures"`
}

// mirrorJob is one cloned batch (owned copies — the request scratch
// is pooled).
type mirrorJob struct {
	lookup   bool
	template string
	bucket   int
	rows     []float64
	width    int
}

// DecisionFront fronts a dejavud (or a replica of one) for many
// clients. Create with NewDecisionFront, expose via Handler, Close
// when done.
type DecisionFront struct {
	cfg   DecisionFrontConfig
	plane *wire.Plane
	pool  sync.Pool // *frontScratch

	batches     atomic.Int64
	decisions   atomic.Int64
	errorsN     atomic.Int64
	mirrored    atomic.Int64
	mirrorDrops atomic.Int64
	mirrorFails atomic.Int64

	// decideLat is the front's own forwarding latency — decode done,
	// upstream answered — exported as a histogram on /metrics.
	decideLat obs.Histogram
	mirrorCh  chan mirrorJob
	mirrorWg  sync.WaitGroup
	closeOnce sync.Once
}

// frontScratch is the pooled per-request state.
type frontScratch struct {
	body []byte
	req  wire.Request
	resp wire.Response
	out  []byte
}

// NewDecisionFront validates the configuration and starts the mirror
// drain (when a clone is configured).
func NewDecisionFront(cfg DecisionFrontConfig) (*DecisionFront, error) {
	if (cfg.Upstream == nil) == (cfg.Replicas == nil) {
		return nil, errors.New("proxy: exactly one of Upstream and Replicas must be set")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	f := &DecisionFront{cfg: cfg}
	f.pool.New = func() any { return &frontScratch{} }
	// The front forwards: an error without a status means the tier
	// could not be reached, 502. Its body limit is a default replica's.
	p := wire.NewPlane("front", wire.DefaultMaxBody, http.StatusBadGateway, &f.errorsN, f.metricFamilies)
	f.plane = p
	p.Decision(f.handleDecision)
	self := func() any { return f.Stats() }
	if cfg.Replicas == nil {
		p.Handle(http.MethodGet, "/v1/stats", 0, func(w http.ResponseWriter, _ *http.Request) { p.Reply(w, self(), nil) })
	} else {
		// Adopt the tier: registry routing spans land in the front's
		// ring, so one /v1/trace dump shows both hops of a decision.
		cfg.Replicas.SetSpans(p.Spans)
		p.Admin(cfg.Replicas, self)
		// Health: the front, per-replica states, agreed versions.
		p.Handle(http.MethodGet, "/v1/health", 0, func(w http.ResponseWriter, _ *http.Request) {
			p.Reply(w, struct {
				Status string             `json:"status"`
				Front  DecisionFrontStats `json:"front"`
				Tier   replica.Status     `json:"tier"`
			}{"ok", f.Stats(), cfg.Replicas.Status()}, nil)
		})
	}
	if cfg.Clone != nil {
		f.mirrorCh = make(chan mirrorJob, cloneQueue)
		f.mirrorWg.Add(1)
		go f.drainMirror()
	}
	return f, nil
}

// Handler returns the HTTP handler serving the front's endpoints.
func (f *DecisionFront) Handler() http.Handler { return f.plane }

// Close stops the mirror drain after its queue empties.
func (f *DecisionFront) Close() {
	f.closeOnce.Do(func() {
		if f.mirrorCh != nil {
			close(f.mirrorCh)
			f.mirrorWg.Wait()
		}
	})
}

// Stats returns a snapshot of the activity counters.
func (f *DecisionFront) Stats() DecisionFrontStats {
	return DecisionFrontStats{
		Batches:     f.batches.Load(),
		Decisions:   f.decisions.Load(),
		Errors:      f.errorsN.Load(),
		Mirrored:    f.mirrored.Load(),
		MirrorDrops: f.mirrorDrops.Load(),
		MirrorFails: f.mirrorFails.Load(),
	}
}

// handleDecision decodes the batch (the mirror and the registry route
// on its header), forwards it upstream through the client library, and
// re-encodes the reply, inside the adapter dejavud also serves through.
func (f *DecisionFront) handleDecision(w http.ResponseWriter, r *http.Request, lookup bool) {
	sc := f.pool.Get().(*frontScratch)
	defer f.pool.Put(sc)
	hop, ok := f.plane.BeginDecision(w, r, &sc.body)
	if !ok {
		return
	}
	if err := sc.req.DecodeBinary(sc.body); err != nil {
		f.plane.Fail(w, wire.NewAPIError(http.StatusBadRequest, err))
		return
	}

	n := f.batches.Add(1)
	if f.mirrorCh != nil && (n-1)%int64(f.cfg.SampleEvery) == 0 {
		f.mirror(&sc.req, lookup)
	}

	// The front's hop — span and latency histogram alike — is the
	// forwarding alone, decode done to upstream answered; the tiers
	// below parent to it through the child context.
	hop.Start = time.Now()
	err := f.decideTraced(lookup, &sc.req, &sc.resp, hop.Child)
	f.decideLat.Record(time.Since(hop.Start))
	if err == nil {
		f.decisions.Add(int64(len(sc.resp.Results)))
		sc.out = sc.resp.AppendBinary(sc.out[:0])
	}
	f.plane.EndDecision(w, lookup, hop, sc.out, err)
}

// mirror enqueues an owned copy of the batch for the clone; a full
// queue drops the batch — profiling tolerates gaps, production
// latency must not.
func (f *DecisionFront) mirror(req *wire.Request, lookup bool) {
	rows := req.Rows()
	if rows == 0 {
		return
	}
	width := len(req.Row(0))
	if width == 0 {
		// A zero-width batch must never reach drainMirror: its
		// flattened rows carry no row boundaries, and the drain loop's
		// `i += width` would spin forever, wedging the mirror
		// goroutine. wire's decoder rejects zero-width frames, so this
		// is defense in depth — count the mirror as a drop.
		f.mirrorDrops.Add(1)
		return
	}
	job := mirrorJob{
		lookup:   lookup,
		template: string(req.Template),
		bucket:   req.Bucket,
		rows:     make([]float64, 0, rows*width),
		width:    width,
	}
	for i := 0; i < rows; i++ {
		job.rows = append(job.rows, req.Row(i)...)
	}
	select {
	case f.mirrorCh <- job:
	default:
		f.mirrorDrops.Add(1)
	}
}

// drainMirror forwards mirrored batches to the clone and drops the
// replies.
func (f *DecisionFront) drainMirror() {
	defer f.mirrorWg.Done()
	var req wire.Request
	var resp wire.Response
	for job := range f.mirrorCh {
		if job.width <= 0 {
			// Defense in depth: enqueue rejects zero-width jobs, but a
			// non-positive stride here means an infinite loop — skip
			// rather than wedge the sole drain goroutine.
			f.mirrorFails.Add(1)
			continue
		}
		req.Reset()
		req.SetTemplate(job.template)
		req.Bucket = job.bucket
		for i := 0; i+job.width <= len(job.rows); i += job.width {
			req.AppendRow(job.rows[i : i+job.width])
		}
		if err := f.cfg.Clone.Decide(job.lookup, &req, &resp); err != nil {
			f.mirrorFails.Add(1)
			if f.cfg.Logf != nil {
				f.cfg.Logf("decision front: clone mirror failed: %v", err)
			}
			continue
		}
		f.mirrored.Add(1)
	}
}

// decideTraced routes one batch to the single upstream or the replica
// tier, forwarding the sampled trace context (zero means untraced and
// routes through the ordinary sampling path).
func (f *DecisionFront) decideTraced(lookup bool, req *wire.Request, resp *wire.Response, tc obs.TraceContext) error {
	if f.cfg.Replicas != nil {
		return f.cfg.Replicas.DecideTraced(lookup, req, resp, tc)
	}
	if tc.Valid() {
		return f.cfg.Upstream.DecideTraced(lookup, req, resp, tc)
	}
	return f.cfg.Upstream.Decide(lookup, req, resp)
}

// metricFamilies is the front's /metrics table: its counters and
// latency histogram — and, in replicated mode, the tier's failover
// counter plus the registry's probe/failover/resync latency
// histograms, so one scrape covers the whole serving tier.
func (f *DecisionFront) metricFamilies() []obs.Metric {
	st := f.Stats()
	fams := []obs.Metric{
		obs.Scalar("dejavu_front_batches_total", "Decision batches accepted by the front.", "counter", float64(st.Batches)),
		obs.Scalar("dejavu_front_decisions_total", "Individual decisions proxied to the serving tier.", "counter", float64(st.Decisions)),
		obs.Scalar("dejavu_front_errors_total", "Requests answered with an error status.", "counter", float64(st.Errors)),
		obs.Scalar("dejavu_front_mirrored_batches_total", "Batches mirrored to the profiling clone.", "counter", float64(st.Mirrored)),
		obs.Scalar("dejavu_front_mirror_drops_total", "Mirrored batches dropped at the bounded queue.", "counter", float64(st.MirrorDrops)),
		obs.Scalar("dejavu_front_mirror_failures_total", "Mirrored batches the clone failed to serve.", "counter", float64(st.MirrorFails)),
		obs.Hist("dejavu_front_decide_latency_seconds", "Front forwarding latency: decode done to upstream answered.", f.decideLat.Snapshot()),
	}
	if f.cfg.Replicas == nil {
		return fams
	}
	tier := f.cfg.Replicas.Obs()
	return append(fams,
		obs.Scalar("dejavu_front_replica_failovers_total", "Decisions that succeeded only after replica failover.", "counter", float64(f.cfg.Replicas.Failovers())),
		obs.Hist("dejavu_replica_probe_rtt_seconds", "Successful replica health-probe round trips.", tier.ProbeRTT),
		obs.Hist("dejavu_replica_failover_duration_seconds", "Routing episodes that needed replica failover.", tier.Failover),
		obs.Hist("dejavu_replica_resync_duration_seconds", "Completed donor-to-replica repairs.", tier.Resync))
}

// DecideLatency snapshots the front's forwarding-latency histogram.
func (f *DecisionFront) DecideLatency() obs.Snapshot { return f.decideLat.Snapshot() }

// String describes the front for logs.
func (f *DecisionFront) String() string {
	if f.cfg.Replicas != nil {
		return "decision front (replicated tier)"
	}
	if f.cfg.Clone != nil {
		return fmt.Sprintf("decision front (mirroring 1/%d batches)", f.cfg.SampleEvery)
	}
	return "decision front"
}
