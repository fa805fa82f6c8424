// Package replica is the replicated decision tier: a registry of N
// dejavud replicas serving the same templates behind one routing
// front. The paper's decision service stays viable at fleet scale
// only if the serving plane survives replica loss without rejecting
// requests, so the registry holds the serving tier N-way redundant
// while the learning tier stays singular — one learned repository is
// published to every replica, and one elected relearn is fanned out
// instead of N redundant rebuilds.
//
// Responsibilities, and how each is kept safe:
//
//   - Health: every replica is probed on an interval — GET /v1/health
//     on the HTTP plane (liveness + per-template repository versions)
//     and, when the replica serves raw TCP, a ping-flagged envelope
//     proving the decision plane end to end. Decide failures mark a
//     replica down immediately; probes bring it back.
//
//   - Routing: decisions round-robin over in-sync, live replicas. A
//     transport error fails over to the next replica; an application
//     error (the daemon parsed and rejected) is returned to the
//     caller without retry, matching the client library's own
//     transport-vs-HTTP retry split.
//
//   - Version consistency: installs use publish-then-flip. The
//     template's routing is pinned to one up-to-date replica, the new
//     version is installed on every other replica, routing flips to
//     the freshly updated set, and only then is the pinned replica
//     updated and released. Concurrent clients therefore never
//     observe version v after having seen v+1: at every instant the
//     template routes to replicas on exactly one version. Versions
//     are forced (install?version=N), so replicas report identical
//     versions for identical content even across restarts.
//
//   - Repair: a replica found behind (it restarted, missed a put, or
//     missed an install) is marked out of sync — excluded from
//     routing — and resynchronized from a healthy donor via
//     /v1/dump + /v1/install at the agreed version, then readmitted.
//
//   - Relearn election: replicas themselves should run with drift
//     relearning disabled except one designated learner. When a probe
//     sees a replica ahead of the registry's agreed version, the
//     registry adopts: dump the learner's result once and fan it out
//     (publish-then-flip again), under a per-template
//     parallel.SingleFlight so N probes trigger one adoption.
//
//   - Drain: removing a replica marks it draining, waits out every
//     in-flight decision under the routing grace period, then closes
//     its connection pool.
//
// Concurrency design: decides hold flip.RLock for the duration of the
// replica call, and routing-table changes (pin, flip, membership)
// publish under flip.Lock — an RWMutex as RCU grace period, so a
// routing change returns only after every decision that could have
// used the old table has finished. stateMu serializes state changes
// (installs, resyncs, adoptions take the write lock; put fan-outs
// take the read lock) so a put can never be wiped by a concurrent
// repository swap it did not land in.
package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/wire"
)

// Spec names one replica's planes.
type Spec struct {
	// Name identifies the replica in logs and Remove calls; defaults
	// to Addr.
	Name string
	// Addr is the replica's HTTP plane (admin + decisions). Required:
	// installs, dumps, and health ride it even when decisions use TCP.
	Addr string
	// TCPAddr, when set, carries decisions over the replica's raw-TCP
	// plane; probes then also ping it.
	TCPAddr string
}

func (s Spec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Addr
}

// ProbeConfig tunes the health-check loop.
type ProbeConfig struct {
	// Interval between probes per replica (default 500ms).
	Interval time.Duration
	// FailAfter is how many consecutive probe failures mark a replica
	// down (default 2). Decide failures mark it down immediately
	// regardless; one probe success brings it back.
	FailAfter int
}

func (p *ProbeConfig) defaults() {
	if p.Interval <= 0 {
		p.Interval = 500 * time.Millisecond
	}
	if p.FailAfter <= 0 {
		p.FailAfter = 2
	}
}

// replicaRetries is the per-replica transport retry budget before the
// registry fails the attempt over to another replica. Kept small
// because the registry owns cross-replica failover: deep per-replica
// retries would just delay it.
const replicaRetries = 1

// Config assembles a Registry.
type Config struct {
	// Replicas is the initial membership; at least one.
	Replicas []Spec
	// Encoding is the decision codec's protocol tag toward replicas.
	// There is one codec: the zero value and wire.EncodingBinary both
	// mean binary, anything else fails New.
	//
	// Deprecated: leave it unset. The field goes once benchmark/ (frozen
	// against this API) stops setting it.
	Encoding wire.Encoding
	// Probe tunes health checking.
	Probe ProbeConfig
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// replica is one member's runtime state.
type replica struct {
	spec Spec
	name string
	cl   *client.Client

	// alive: the last probe (or decide) succeeded. Gates preferred
	// routing; stale-but-synced replicas still serve as a fallback.
	alive atomic.Bool
	// synced: the registry believes this replica holds every template
	// at the agreed version with no missed puts. Gates routing hard —
	// an unsynced replica is never served from.
	synced atomic.Bool
	// dirty: the replica missed a put, so its content diverges even
	// though its versions match the agreed ones. Version reconciliation
	// must not readmit it — only a forced resync (full reinstall from a
	// donor) clears this.
	dirty atomic.Bool
	// draining: Remove in progress; excluded from everything.
	draining atomic.Bool

	stop chan struct{} // closed by Remove/Close to stop the probe loop
	done chan struct{} // closed by the probe loop on exit

	syncFlight parallel.SingleFlight // one resync in flight per replica

	decideFails atomic.Int64
	resyncs     atomic.Int64
}

// Registry tracks the replica set and routes the decision plane over
// it. Create with New; Close stops the probes.
type Registry struct {
	cfg Config

	// flip is the routing grace period: decides hold the read lock
	// across the replica call; membership and pin changes publish
	// under the write lock, so they return only after every decision
	// against the old table has drained.
	flip sync.RWMutex
	all  atomic.Pointer[[]*replica]
	// pins overrides routing per template during publish-then-flip.
	pins atomic.Pointer[map[string][]*replica]
	rr   atomic.Uint64

	// stateMu orders repository state changes: installs, resyncs, and
	// adoptions hold the write lock; put fan-outs hold the read lock.
	stateMu sync.RWMutex
	// desired is the agreed version per template — the version every
	// in-sync replica serves (guarded by stateMu).
	desired map[string]uint64
	// epoch counts agreed-version changes. A probe snapshots it before
	// fetching a replica's health; if it moved by the time the health
	// is evaluated, the health document describes a state older than
	// `desired` and reconciling against it would wrongly demote a
	// replica the install just updated — the probe skips and retries.
	epoch atomic.Uint64

	flightMu sync.Mutex
	adopts   map[string]*parallel.SingleFlight

	closed atomic.Bool
	wg     sync.WaitGroup

	failovers atomic.Int64
	installs  atomic.Int64
	adoptions atomic.Int64

	// spans receives one span per traced decision routed through the
	// registry (component "registry"); nil records nothing. A decision
	// front sets its own ring with SetSpans after construction, so one
	// /v1/trace dump stitches both hops. Atomic because decides read it
	// concurrently.
	spans atomic.Pointer[obs.SpanRing]

	// Latency accounting for the tier's three operational loops; the
	// decision front re-exports the snapshots on its /metrics plane.
	probeRTT    obs.Histogram // successful health probes, both planes
	failoverDur obs.Histogram // decides that succeeded only after failover
	resyncDur   obs.Histogram // completed donor-to-replica repairs
}

// New validates the configuration, dials nothing, and starts the
// probe loops. Replicas start optimistically live (the first failed
// probe or decide demotes them) and in sync (the registry has no
// agreed versions yet).
func New(cfg Config) (*Registry, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("replica: Config.Replicas must name at least one replica")
	}
	cfg.Probe.defaults()
	r := &Registry{
		cfg:     cfg,
		desired: map[string]uint64{},
		adopts:  map[string]*parallel.SingleFlight{},
	}
	reps := make([]*replica, 0, len(cfg.Replicas))
	seen := map[string]bool{}
	for _, spec := range cfg.Replicas {
		rep, err := r.newReplica(spec)
		if err != nil {
			for _, p := range reps {
				p.cl.Close()
			}
			return nil, err
		}
		if seen[rep.name] {
			for _, p := range reps {
				p.cl.Close()
			}
			rep.cl.Close()
			return nil, fmt.Errorf("replica: replica %q configured twice", rep.name)
		}
		seen[rep.name] = true
		rep.synced.Store(true)
		reps = append(reps, rep)
	}
	r.all.Store(&reps)
	for _, rep := range reps {
		r.wg.Add(1)
		go r.probeLoop(rep)
	}
	return r, nil
}

func (r *Registry) newReplica(spec Spec) (*replica, error) {
	if spec.Addr == "" {
		return nil, errors.New("replica: spec needs an HTTP address (the admin/install plane)")
	}
	cl, err := client.New(client.Config{
		Addr:     spec.Addr,
		TCPAddr:  spec.TCPAddr,
		Encoding: r.cfg.Encoding,
		Retries:  replicaRetries,
	})
	if err != nil {
		return nil, err
	}
	rep := &replica{
		spec: spec,
		name: spec.name(),
		cl:   cl,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	rep.alive.Store(true)
	return rep, nil
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Close drains the probe loops and closes every replica client.
// Outstanding decides finish on their own connections.
func (r *Registry) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	for _, rep := range *r.all.Load() {
		close(rep.stop)
	}
	r.wg.Wait()
	for _, rep := range *r.all.Load() {
		rep.cl.Close()
	}
}

// Decide routes one decision batch to a healthy replica, failing
// transport errors over to the next one — two passes, the first over
// live replicas, the second retrying stale-but-synced ones in case
// the probes are behind reality. Application errors (*wire.APIError)
// are returned without failover: the replicas share repository
// content, so a parsed-and-rejected request is rejected everywhere.
func (r *Registry) Decide(lookup bool, req *wire.Request, resp *wire.Response) error {
	return r.DecideTraced(lookup, req, resp, obs.TraceContext{})
}

// DecideTraced is Decide carrying a sampled trace context: the
// registry records its own routing span (component "registry") into
// the configured ring and forwards a child context to whichever
// replica serves the batch, so the replica's dejavud span parents to
// this hop. A zero context routes identically and records nothing.
func (r *Registry) DecideTraced(lookup bool, req *wire.Request, resp *wire.Response, tc obs.TraceContext) error {
	var child obs.TraceContext
	var spanStart time.Time
	if tc.Valid() {
		child = obs.Child(tc)
		spanStart = time.Now()
	}
	err := r.decideRouted(lookup, req, resp, child)
	if child.Valid() {
		r.spans.Load().RecordHop(tc, child, "registry", wire.OpName(lookup), spanStart, time.Since(spanStart))
	}
	return err
}

// SetSpans replaces the registry's span sink; a decision front calls
// it so tier routing spans land in the same ring as the front's own.
func (r *Registry) SetSpans(ring *obs.SpanRing) { r.spans.Store(ring) }

func (r *Registry) decideRouted(lookup bool, req *wire.Request, resp *wire.Response, tc obs.TraceContext) error {
	r.flip.RLock()
	defer r.flip.RUnlock()
	cands := *r.all.Load()
	if pins := r.pins.Load(); pins != nil {
		if p, ok := (*pins)[string(req.Template)]; ok {
			cands = p
		}
	}
	n := len(cands)
	if n == 0 {
		return errors.New("replica: registry has no replicas")
	}
	start := int(r.rr.Add(1) - 1)
	var lastErr error
	attempts := 0
	var firstTry time.Time
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			rep := cands[(start+i)%n]
			if rep.draining.Load() || !rep.synced.Load() {
				continue
			}
			if pass == 0 && !rep.alive.Load() {
				continue
			}
			if attempts == 0 {
				firstTry = time.Now()
			}
			attempts++
			err := rep.cl.DecideTraced(lookup, req, resp, tc)
			if err == nil {
				if attempts > 1 {
					r.failovers.Add(1)
					// Failover cost: the whole routing episode, first
					// attempt through eventual success — what a caller
					// paid beyond a clean single-replica decide.
					r.failoverDur.Record(time.Since(firstTry))
				}
				return nil
			}
			var apiErr *wire.APIError
			if errors.As(err, &apiErr) {
				return err
			}
			rep.decideFails.Add(1)
			rep.alive.Store(false)
			lastErr = err
		}
	}
	if lastErr == nil {
		return errors.New("replica: no routable replicas")
	}
	return fmt.Errorf("replica: decide failed after %d attempts: %w", attempts, lastErr)
}

// Install publishes a learned repository tier-wide and returns the
// agreed version now serving.
func (r *Registry) Install(template string, repo *core.Repository) (uint64, error) {
	var buf bytes.Buffer
	if err := core.SaveRepository(repo, &buf); err != nil {
		return 0, err
	}
	return r.InstallSerialized(template, buf.Bytes())
}

// InstallSerialized publishes serialized repository bytes tier-wide
// and returns the agreed version now serving.
func (r *Registry) InstallSerialized(template string, data []byte) (uint64, error) {
	rep, err := r.InstallAt(template, data, 0)
	return rep.Version, err
}

// InstallAt publishes serialized repository bytes to every replica at
// the next agreed version with the publish-then-flip protocol, so
// concurrent clients never observe mixed versions for the template. A
// replica that fails its install is marked out of sync (excluded from
// routing) and repaired by the resync loop; the install as a whole
// fails only if no replica accepted it. The registry assigns the
// tier's versions, so a requested one is ignored (wire.Backend).
func (r *Registry) InstallAt(template string, data []byte, _ uint64) (wire.InstallReply, error) {
	if template == "" {
		return wire.InstallReply{}, errors.New("replica: install needs a template id")
	}
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	version := r.desired[template] + 1
	rep, err := r.publishLocked(template, data, version)
	if err != nil {
		return wire.InstallReply{}, err
	}
	r.desired[template] = version
	r.epoch.Add(1)
	r.installs.Add(1)
	return rep, nil
}

// publishLocked fans data out at version under stateMu. For an
// already-served template with more than one target it runs the
// publish-then-flip dance:
//
//  1. pin the template's routing to one in-sync replica (still
//     serving v);
//  2. install v+1 on every other in-sync replica;
//  3. flip the pin to the freshly updated set — from here every
//     decision sees v+1;
//  4. install v+1 on the pinned replica and release the pin.
//
// Each pin change publishes under the routing grace period, so at no
// instant can two decisions of one template observe different
// versions.
func (r *Registry) publishLocked(template string, data []byte, version uint64) (wire.InstallReply, error) {
	live := r.installTargets()
	if len(live) == 0 {
		return wire.InstallReply{}, errors.New("replica: no replicas available for install")
	}
	// install fans out over reps, keeping the replicas that took the
	// version and the first one's reply (they all hold the same bytes).
	var reply wire.InstallReply
	var lastErr error
	install := func(reps []*replica) (updated []*replica) {
		for _, rep := range reps {
			got, err := r.installOn(rep, template, data, version)
			if err != nil {
				lastErr = err
				continue
			}
			if len(updated) == 0 {
				reply = got
			}
			updated = append(updated, rep)
		}
		return updated
	}
	if r.desired[template] == 0 || len(live) == 1 {
		// Nothing serves this template yet (or there is only one
		// target): no mixed-version window exists to defend.
		if len(install(live)) == 0 {
			return reply, fmt.Errorf("replica: install %q failed on every replica: %w", template, lastErr)
		}
		return reply, nil
	}
	pin := live[0]
	r.setPin(template, []*replica{pin})
	updated := install(live[1:])
	if len(updated) == 0 {
		r.setPin(template, nil)
		return reply, fmt.Errorf("replica: install %q failed on every fan-out replica: %w", template, lastErr)
	}
	r.setPin(template, updated)
	// The pinned replica is no longer routed; bring it forward too. A
	// failure here just leaves it out of sync for the resync loop.
	_, _ = r.installOn(pin, template, data, version)
	r.setPin(template, nil)
	return reply, nil
}

// installTargets lists the replicas an install must reach: in sync
// and not draining. Liveness is not required — a flapping replica may
// still take the install, and a genuinely dead one fails it and gets
// marked out of sync.
func (r *Registry) installTargets() []*replica {
	var out []*replica
	for _, rep := range *r.all.Load() {
		if rep.synced.Load() && !rep.draining.Load() {
			out = append(out, rep)
		}
	}
	return out
}

func (r *Registry) installOn(rep *replica, template string, data []byte, version uint64) (wire.InstallReply, error) {
	reply, err := rep.cl.InstallAt(template, data, version)
	if err != nil {
		rep.synced.Store(false)
		r.logf("replica: install %s@%d on %s failed: %v", template, version, rep.name, err)
	}
	return reply, err
}

// setPin publishes a routing override for one template (nil reps
// removes it) under the grace period: when it returns, no in-flight
// decision is using the previous routing.
func (r *Registry) setPin(template string, reps []*replica) {
	next := map[string][]*replica{}
	if old := r.pins.Load(); old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	if reps == nil {
		delete(next, template)
	} else {
		next[template] = reps
	}
	r.flip.Lock()
	r.pins.Store(&next)
	r.flip.Unlock()
}

// Put fans one put to every in-sync replica, so a tuned allocation
// shared by one controller is visible to lookups routed anywhere. A
// replica that misses the put over a transport error is marked out of
// sync and repaired by resync; the put succeeds if any replica took it.
// An application-level rejection is authoritative (the replicas share
// content — the first replica to parse the request rejects it before
// any state changed).
func (r *Registry) Put(req wire.PutRequest) (wire.PutReply, error) {
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	var reply wire.PutReply
	var lastErr error
	ok := 0
	for _, rep := range *r.all.Load() {
		if !rep.synced.Load() || rep.draining.Load() {
			continue
		}
		got, err := rep.cl.Put(req)
		if err != nil {
			var apiErr *wire.APIError
			if errors.As(err, &apiErr) {
				return wire.PutReply{}, err
			}
			rep.dirty.Store(true)
			rep.synced.Store(false)
			rep.alive.Store(false)
			r.requestResync(rep)
			lastErr = err
			continue
		}
		if ok++; ok == 1 {
			reply = got
		}
	}
	if ok == 0 {
		if lastErr == nil {
			return wire.PutReply{}, errors.New("replica: no replicas available for put")
		}
		return wire.PutReply{}, fmt.Errorf("replica: put failed on every replica: %w", lastErr)
	}
	return reply, nil
}

// Get routes one get to a healthy replica with the same failover shape
// as Decide.
func (r *Registry) Get(req wire.GetRequest) (wire.GetReply, error) {
	return routed(r, "get", func(rep *replica) (wire.GetReply, error) { return rep.cl.Get(req) })
}

// Templates lists the tier's templates from the first replica that
// answers.
func (r *Registry) Templates() ([]wire.TemplateInfo, error) {
	return routed(r, "templates", func(rep *replica) ([]wire.TemplateInfo, error) { return rep.cl.Templates() })
}

// routed tries fn over the replicas in failover order (live and in-sync
// first, then stale-but-synced) and returns the first success.
// Application errors abort immediately.
func routed[T any](r *Registry, what string, fn func(*replica) (T, error)) (out T, err error) {
	all := *r.all.Load()
	n := len(all)
	start := int(r.rr.Add(1) - 1)
	lastErr := errors.New("no routable replicas")
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			rep := all[(start+i)%n]
			if rep.draining.Load() || !rep.synced.Load() {
				continue
			}
			if pass == 0 && !rep.alive.Load() {
				continue
			}
			if out, err = fn(rep); err == nil {
				return out, nil
			}
			var apiErr *wire.APIError
			if errors.As(err, &apiErr) {
				return out, fmt.Errorf("replica: %s: %w", what, err)
			}
			rep.alive.Store(false)
			lastErr = err
		}
	}
	return out, fmt.Errorf("replica: %s: %w", what, lastErr)
}

// StatsFor aggregates one template's serving statistics across the
// replicas that answer: counters sum, repository shape comes from the
// first responder (wire.Stats.Merge). Counters on a replica that died
// are gone — aggregation is telemetry, not bookkeeping.
func (r *Registry) StatsFor(template string) (wire.Stats, error) {
	var agg wire.Stats
	got := 0
	var lastErr error
	for _, rep := range *r.all.Load() {
		if rep.draining.Load() || !rep.synced.Load() {
			continue
		}
		st, err := rep.cl.Stats(template)
		if err != nil {
			var apiErr *wire.APIError
			if errors.As(err, &apiErr) {
				return wire.Stats{}, err
			}
			lastErr = err
			continue
		}
		if got++; got == 1 {
			agg = st
		} else {
			agg.Merge(st)
		}
	}
	if got == 0 {
		if lastErr == nil {
			lastErr = errors.New("replica: no replicas available for stats")
		}
		return wire.Stats{}, lastErr
	}
	return agg, nil
}

// ReplicaStatus is one replica's slice of the registry status.
type ReplicaStatus struct {
	Name        string `json:"name"`
	Addr        string `json:"addr"`
	TCPAddr     string `json:"tcp_addr,omitempty"`
	Alive       bool   `json:"alive"`
	Synced      bool   `json:"synced"`
	Draining    bool   `json:"draining"`
	DecideFails int64  `json:"decide_failures"`
	Resyncs     int64  `json:"resyncs"`
}

// Status is the registry's health document.
type Status struct {
	Replicas  []ReplicaStatus   `json:"replicas"`
	Templates map[string]uint64 `json:"templates"`
	Failovers int64             `json:"failovers"`
	Installs  int64             `json:"installs"`
	Adoptions int64             `json:"adoptions"`
}

// Status snapshots membership, health states, and agreed versions.
func (r *Registry) Status() Status {
	st := Status{
		Templates: map[string]uint64{},
		Failovers: r.failovers.Load(),
		Installs:  r.installs.Load(),
		Adoptions: r.adoptions.Load(),
	}
	r.stateMu.RLock()
	for name, v := range r.desired {
		st.Templates[name] = v
	}
	r.stateMu.RUnlock()
	for _, rep := range *r.all.Load() {
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Name:        rep.name,
			Addr:        rep.spec.Addr,
			TCPAddr:     rep.spec.TCPAddr,
			Alive:       rep.alive.Load(),
			Synced:      rep.synced.Load(),
			Draining:    rep.draining.Load(),
			DecideFails: rep.decideFails.Load(),
			Resyncs:     rep.resyncs.Load(),
		})
	}
	return st
}

// Failovers reports how many decisions succeeded only after failing
// over from at least one replica.
func (r *Registry) Failovers() int64 { return r.failovers.Load() }

// Obs is a snapshot of the registry's latency accounting, shaped for
// re-export on a front's /metrics plane.
type Obs struct {
	// ProbeRTT is the distribution of successful health-probe round
	// trips (HTTP health plus, when configured, the TCP ping).
	ProbeRTT obs.Snapshot
	// Failover is the distribution of full routing episodes that
	// succeeded only after at least one replica failed over.
	Failover obs.Snapshot
	// Resync is the distribution of completed donor-to-replica repairs.
	Resync obs.Snapshot
}

// Obs snapshots the registry's probe/failover/resync latency
// histograms.
func (r *Registry) Obs() Obs {
	return Obs{
		ProbeRTT: r.probeRTT.Snapshot(),
		Failover: r.failoverDur.Snapshot(),
		Resync:   r.resyncDur.Snapshot(),
	}
}

// Add admits a new replica. It starts out of sync when the registry
// has agreed versions (the resync loop installs them from a donor and
// only then admits it to routing) — so a freshly restarted, empty
// replica never serves a stale or missing template.
func (r *Registry) Add(spec Spec) error {
	if r.closed.Load() {
		return errors.New("replica: registry is closed")
	}
	rep, err := r.newReplica(spec)
	if err != nil {
		return err
	}
	r.stateMu.Lock()
	for _, o := range *r.all.Load() {
		if o.name == rep.name {
			r.stateMu.Unlock()
			rep.cl.Close()
			return fmt.Errorf("replica: replica %q already registered", rep.name)
		}
	}
	rep.synced.Store(len(r.desired) == 0)
	cur := *r.all.Load()
	next := make([]*replica, 0, len(cur)+1)
	next = append(append(next, cur...), rep)
	r.flip.Lock()
	r.all.Store(&next)
	r.flip.Unlock()
	r.stateMu.Unlock()
	r.wg.Add(1)
	go r.probeLoop(rep)
	r.logf("replica: added %s", rep.name)
	return nil
}

// Remove drains one replica out of the tier: mark it draining (no new
// routes), publish the membership change under the routing grace
// period (returns only after every in-flight decision against it has
// finished), stop its probe, and drop its connection pool.
func (r *Registry) Remove(name string) error {
	r.stateMu.Lock()
	cur := *r.all.Load()
	var rep *replica
	next := make([]*replica, 0, len(cur))
	for _, o := range cur {
		if o.name == name {
			rep = o
			continue
		}
		next = append(next, o)
	}
	if rep == nil {
		r.stateMu.Unlock()
		return fmt.Errorf("replica: unknown replica %q", name)
	}
	rep.draining.Store(true)
	r.flip.Lock()
	r.all.Store(&next)
	r.flip.Unlock()
	r.stateMu.Unlock()
	// Outside stateMu: the probe loop's reconcile takes stateMu and
	// must be free to finish before it notices the stop signal.
	close(rep.stop)
	<-rep.done
	rep.cl.Close()
	r.logf("replica: removed %s", rep.name)
	return nil
}

// probeLoop owns one replica's health checking until Remove or Close.
func (r *Registry) probeLoop(rep *replica) {
	defer r.wg.Done()
	defer close(rep.done)
	fails := 0
	t := time.NewTicker(r.cfg.Probe.Interval)
	defer t.Stop()
	for {
		r.probeOnce(rep, &fails)
		select {
		case <-rep.stop:
			return
		case <-t.C:
		}
	}
}

// probeOnce runs one health check: HTTP health (liveness + versions),
// then a TCP ping when the replica serves raw TCP — both planes must
// answer for the replica to count as live.
func (r *Registry) probeOnce(rep *replica, fails *int) {
	epoch := r.epoch.Load()
	probeStart := time.Now()
	h, err := rep.cl.Health()
	if err == nil && rep.spec.TCPAddr != "" {
		err = rep.cl.Ping()
	}
	if err == nil {
		// Failed probes ride timeouts, not the network path; only a
		// completed probe measures the tier's real round-trip time.
		r.probeRTT.Record(time.Since(probeStart))
	}
	if err != nil {
		*fails++
		if *fails >= r.cfg.Probe.FailAfter && rep.alive.CompareAndSwap(true, false) {
			r.logf("replica: %s marked down after %d failed probes: %v", rep.name, *fails, err)
		}
		return
	}
	*fails = 0
	if rep.alive.CompareAndSwap(false, true) {
		r.logf("replica: %s is back up", rep.name)
	}
	r.reconcile(rep, h, epoch)
}

// reconcile compares a probe's reported template versions against the
// agreed ones: behind means mark out of sync and schedule a resync;
// ahead means a replica relearned locally — schedule a tier-wide
// adoption; in line means (re)admit to routing. epoch is the agreed
// state's generation when the health was fetched — if it moved since,
// the health predates the current agreed versions and judging the
// replica by it would demote replicas an install just updated, so the
// probe abstains until the next round.
func (r *Registry) reconcile(rep *replica, h wire.Health, epoch uint64) {
	resync := rep.dirty.Load() // divergent content: versions prove nothing
	var adopt []string
	r.stateMu.RLock()
	if r.epoch.Load() != epoch {
		r.stateMu.RUnlock()
		return
	}
	for name, want := range r.desired {
		if got, ok := h.Templates[name]; !ok || got.Version < want {
			resync = true
		}
	}
	for name, got := range h.Templates {
		if got.Version > r.desired[name] {
			adopt = append(adopt, name)
		}
	}
	if resync {
		rep.synced.Store(false)
	} else if !rep.draining.Load() {
		// In line with every agreed version: admit. Done under the
		// state read lock so no install can be concurrently moving the
		// agreed versions this probe was checked against.
		rep.synced.Store(true)
	}
	r.stateMu.RUnlock()
	if resync {
		r.requestResync(rep)
	}
	for _, name := range adopt {
		r.adoptLater(name)
	}
}

// requestResync schedules a single-flight repair of one replica.
func (r *Registry) requestResync(rep *replica) {
	if rep.draining.Load() || r.closed.Load() {
		return
	}
	rep.syncFlight.TryGo(func() { r.resync(rep) })
}

// resync repairs one out-of-sync replica: for every template it is
// behind on, dump a healthy donor and install the bytes verbatim at
// the agreed version. Runs under the state write lock, so no put or
// install can interleave with the repair; on any failure the replica
// simply stays out of sync and the next probe re-triggers.
func (r *Registry) resync(rep *replica) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	if rep.draining.Load() {
		return
	}
	// A dirty replica's versions lie (a missed put diverged its
	// content under an unchanged version): reinstall everything.
	force := rep.dirty.Load()
	resyncStart := time.Now()
	h, err := rep.cl.Health()
	if err != nil {
		return
	}
	for name, want := range r.desired {
		if got, ok := h.Templates[name]; !force && ok && got.Version >= want {
			continue
		}
		donor := r.donorFor(rep)
		if donor == nil {
			r.logf("replica: %s needs %s@%d but no in-sync donor exists", rep.name, name, want)
			return
		}
		v, data, err := donor.cl.DumpSerialized(name)
		if err != nil {
			r.logf("replica: resync %s: dump %s from %s failed: %v", rep.name, name, donor.name, err)
			return
		}
		if v < want {
			r.logf("replica: resync %s: donor %s serves %s@%d behind agreed %d", rep.name, donor.name, name, v, want)
			return
		}
		if _, err := rep.cl.InstallSerialized(name, data, v); err != nil {
			r.logf("replica: resync %s: install %s@%d failed: %v", rep.name, name, v, err)
			return
		}
	}
	rep.dirty.Store(false)
	rep.synced.Store(true)
	rep.resyncs.Add(1)
	r.resyncDur.Record(time.Since(resyncStart))
	r.logf("replica: %s resynced to %d templates", rep.name, len(r.desired))
}

func (r *Registry) donorFor(rep *replica) *replica {
	for _, other := range *r.all.Load() {
		if other == rep || !other.synced.Load() || other.draining.Load() {
			continue
		}
		return other
	}
	return nil
}

// adoptLater schedules a tier-wide adoption of a locally relearned
// template, single-flight per template: N probes noticing the same
// new version trigger one adoption — the tier-level analogue of the
// server's per-template relearn single-flight.
func (r *Registry) adoptLater(template string) {
	if r.closed.Load() {
		return
	}
	r.flightMu.Lock()
	fl := r.adopts[template]
	if fl == nil {
		fl = &parallel.SingleFlight{}
		r.adopts[template] = fl
	}
	r.flightMu.Unlock()
	fl.TryGo(func() { r.adopt(template) })
}

// adopt fans the most advanced replica's version of template out to
// the rest — the elected relearn's result replaces N redundant
// relearns. The learner is pinned as the template's route during the
// fan-out (it already serves the new version), so the flip protocol's
// no-mixed-versions guarantee holds here too.
func (r *Registry) adopt(template string) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	var src *replica
	var best uint64
	for _, rep := range *r.all.Load() {
		if rep.draining.Load() || !rep.synced.Load() {
			continue
		}
		h, err := rep.cl.Health()
		if err != nil {
			continue
		}
		if t, ok := h.Templates[template]; ok && t.Version > best {
			best, src = t.Version, rep
		}
	}
	if src == nil || best <= r.desired[template] {
		return // already adopted, or the learner died first
	}
	v, data, err := src.cl.DumpSerialized(template)
	if err != nil || v < best {
		return
	}
	r.setPin(template, []*replica{src})
	for _, rep := range *r.all.Load() {
		if rep == src || rep.draining.Load() || !rep.synced.Load() {
			continue
		}
		_, _ = r.installOn(rep, template, data, v)
	}
	r.setPin(template, nil)
	r.desired[template] = v
	r.epoch.Add(1)
	r.adoptions.Add(1)
	r.logf("replica: adopted relearned %s@%d from %s", template, v, src.name)
}
