package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/services"
	"repro/internal/sim"
)

// ControllerConfig configures the runtime DejaVu controller.
type ControllerConfig struct {
	// Source is the decision plane the controller consults: an
	// in-process repository handle or a remote dejavud client.
	// Exactly one of Source and Repository must be set.
	Source DecisionSource
	// Repository is the learned signature cache — the historical
	// in-process shape, wrapped into a DecisionSource internally.
	Repository *Repository
	// Profiler collects runtime signatures (~10 s each).
	Profiler *Profiler
	// Tuner handles repository misses (new interference buckets).
	Tuner Tuner
	// Service provides SLO and full-capacity information.
	Service services.Service
	// InterferenceDetection enables the Eq. 2 feedback loop;
	// disabling it reproduces the interference-oblivious baseline of
	// Fig. 11.
	InterferenceDetection bool
	// OnDemandProfiling additionally triggers a profiling round as
	// soon as the SLO is violated rather than waiting for the next
	// periodic round — the paper's "periodically or on-demand (e.g.,
	// upon a violation of an SLO)". Useful when the workload can
	// change between periodic rounds.
	OnDemandProfiling bool
}

const (
	// profileInterval is the periodic profiling cadence, the traces'
	// granularity. Each round's signature costs DefaultSignatureWindow.
	profileInterval = time.Hour
	// onDemandCooldown rate-limits violation-triggered profiling.
	onDemandCooldown = 5 * time.Minute
	// relearnThreshold is the number of consecutive unforeseen
	// profiling rounds after which the controller reports that the
	// clustering has gone stale (paper §3.5: "If the repository
	// repeatedly outputs low certainty levels, it most likely means
	// that the workload has changed over time and the current
	// clustering is no longer relevant").
	relearnThreshold = 3
)

// Controller is the runtime DejaVu loop (paper §3.5–3.6): on workload
// change, collect a signature, classify it, and instantly reuse the
// cached allocation; fall back to full capacity for unforeseen
// workloads; detect interference through the performance index and
// re-provision from the interference-keyed cache.
type Controller struct {
	cfg ControllerConfig
	src DecisionSource
	// grace is how long after an allocation change the controller
	// waits before blaming interference for violations, covering
	// warm-up and the worst of the re-partitioning transient: half the
	// service's stabilization period, floored at 2 minutes.
	grace time.Duration

	// sigEvents is the decision source's signature tuple, fetched once so
	// every profiling round reuses the same slice (which also keys the
	// profiler's monitor cache); sigScratch is the reusable signature
	// the fast path samples into — together they make the steady-state
	// profile+classify round allocation-free.
	sigEvents  []metrics.Event
	sigScratch Signature

	// roundOpen marks a profiling round parked at its lookup: the
	// sample and bucket are taken, and the re-call only looks up again.
	roundOpen bool

	lastProfile          time.Duration
	lastDecision         time.Duration
	currentClass         int
	currentBucket        int
	adaptations          []time.Duration
	unforeseenCount      int
	consecutiveUnforseen int
	tuningCount          int
	interferenceHit      int

	// scratchTarget backs Action.Target for every decision: the sim
	// engine dereferences the pointer before the next Step, so reusing
	// one field instead of boxing a fresh allocation per decision keeps
	// the controller's hot path off the heap (the &target escape was
	// the single largest alloc source in the fleet run phase).
	scratchTarget cloud.Allocation
}

// NewController validates the configuration and returns a runtime
// controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	c := new(Controller)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset validates the configuration and re-initializes c in place as
// the controller NewController builds for it, whatever c ran before — a
// finished run, or one abandoned with a round parked. Only storage
// survives: the adaptation log and the signature scratch keep their
// capacity, so a caller that runs many controllers in sequence (the
// fleet's workers) reuses one without allocating.
func (c *Controller) Reset(cfg ControllerConfig) error {
	if cfg.Profiler == nil || cfg.Tuner == nil || cfg.Service == nil {
		return errors.New("core: controller needs Source (or Repository), Profiler, Tuner, and Service")
	}
	src := cfg.Source
	if src == nil {
		var err error
		if src, err = SourceForRepository(cfg.Repository); err != nil {
			return errors.New("core: controller needs Source (or Repository), Profiler, Tuner, and Service")
		}
	} else if cfg.Repository != nil {
		return errors.New("core: set ControllerConfig.Source or Repository, not both")
	}
	*c = Controller{
		cfg:          cfg,
		src:          src,
		grace:        max(cfg.Service.StabilizationPeriod()/2, 2*time.Minute),
		sigEvents:    src.Events(),
		sigScratch:   Signature{Values: c.sigScratch.Values[:0]},
		lastProfile:  -1 << 62,
		lastDecision: -1 << 62,
		currentClass: -1,
		adaptations:  c.adaptations[:0],
	}
	return nil
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "dejavu" }

// Step implements sim.Controller. Its wake hint lets the engine skip
// the steps on which it would return at once: in a transition it sleeps
// until the settle re-wakes it; otherwise until the next periodic round
// and, when on-demand profiling or interference detection can react to
// one, any SLO violation before that. When the source's Lookup returns
// ErrParked, Step parks the round (sim.ErrParked); the engine's
// re-call with the same observation finishes it.
func (c *Controller) Step(obs *sim.Observation) (sim.Action, error) {
	if obs.InTransition {
		return sim.Action{Wake: 1 << 62}, nil
	}

	// Periodic (or first) profiling: the cache-hit fast path. An SLO
	// violation triggers the same round early when on-demand
	// profiling is enabled — a workload change between periodic
	// rounds then costs minutes instead of up to a full interval.
	periodic := obs.Now-c.lastProfile >= profileInterval
	onDemand := c.cfg.OnDemandProfiling && obs.SLOViolated &&
		obs.Now-c.lastProfile >= onDemandCooldown &&
		obs.Now-c.lastDecision >= onDemandCooldown
	// A parked round's re-call comes with the same observation, and
	// finishes the round.
	if periodic || onDemand || c.roundOpen {
		c.lastProfile = obs.Now
		act, err := c.profileAndReuse(obs)
		return c.sleep(act), err
	}

	// On-demand path: an SLO violation outside any transition or
	// grace window points at interference (the workload class was
	// just verified, so "workload changes are excluded from the
	// potential reasons"). Its action asks for the next step.
	if c.cfg.InterferenceDetection && obs.SLOViolated &&
		obs.Now-c.lastDecision >= c.grace && c.currentClass >= 0 {
		return c.handleInterference(obs)
	}
	return c.sleep(sim.Action{}), nil
}

// sleep sets an action's wake hint to the next periodic round and, when
// a violation can trigger a reaction, to any violation before it.
func (c *Controller) sleep(act sim.Action) sim.Action {
	act.Wake = c.lastProfile + profileInterval
	act.WakeOnViolation = c.cfg.OnDemandProfiling || c.cfg.InterferenceDetection
	return act
}

// profileAndReuse collects a signature, classifies it, and reuses the
// cached allocation. A parked lookup leaves the round open: the
// re-call only looks the same signature up again, without sampling
// (the profiler's rng draws once per round) or re-estimating the
// bucket.
func (c *Controller) profileAndReuse(obs *sim.Observation) (sim.Action, error) {
	if !c.roundOpen {
		if err := c.cfg.Profiler.ProfileInto(obs.Workload, c.sigEvents, c.cfg.Profiler.Window, &c.sigScratch); err != nil {
			return sim.Action{}, fmt.Errorf("core: runtime profiling: %w", err)
		}
		// Track the current interference level so the lookup lands in
		// the right bucket even across workload-class changes.
		if c.cfg.InterferenceDetection {
			c.currentBucket = c.estimateBucket(obs)
		}
	}

	res, err := c.src.Lookup(&c.sigScratch, c.currentBucket)
	if c.roundOpen = err == ErrParked; c.roundOpen {
		return sim.Action{}, sim.ErrParked
	}
	if err != nil {
		return sim.Action{}, err
	}
	if res.Unforeseen {
		// "DejaVu configures the service with the maximum allowed
		// capacity to ensure that the performance is not affected
		// when experiencing non-classified workloads."
		c.unforeseenCount++
		c.consecutiveUnforseen++
		c.currentClass = -1
		max := c.cfg.Service.MaxAllocation()
		return c.decide(obs, max, DefaultSignatureWindow), nil
	}
	c.consecutiveUnforseen = 0
	c.currentClass = res.Class
	if res.Hit {
		return c.decide(obs, res.Allocation, DefaultSignatureWindow), nil
	}
	// Known class, missing interference bucket: tune under the
	// bucket's representative contention and cache the result.
	alloc, err := c.tuneAndStore(obs.Workload, res.Class, c.currentBucket)
	if err != nil {
		return sim.Action{}, err
	}
	return c.decide(obs, alloc, DefaultSignatureWindow+c.cfg.Tuner.Duration()), nil
}

// handleInterference runs the Eq. 2 feedback loop.
func (c *Controller) handleInterference(obs *sim.Observation) (sim.Action, error) {
	bucket := c.estimateBucket(obs)
	if bucket <= c.currentBucket {
		// The estimate does not explain the violation with a higher
		// bucket; escalate by one to provision more resources (the
		// pragmatic "request more resources" response).
		bucket = c.currentBucket + 1
	}
	if bucket > maxInterferenceBucket {
		bucket = maxInterferenceBucket
	}
	c.currentBucket = bucket
	c.interferenceHit++

	alloc, ok, err := c.src.Get(c.currentClass, bucket)
	if err != nil {
		return sim.Action{}, err
	}
	if ok {
		return c.decide(obs, alloc, DefaultSignatureWindow), nil
	}
	alloc, err = c.tuneAndStore(obs.Workload, c.currentClass, bucket)
	if err != nil {
		return sim.Action{}, err
	}
	return c.decide(obs, alloc, DefaultSignatureWindow+c.cfg.Tuner.Duration()), nil
}

// estimateBucket contrasts the measured production performance with
// the profiler's isolation performance for the current allocation,
// then inverts the latency model to recover the contention fraction —
// an allocation-invariant quantity, so the estimate stays stable after
// a compensating allocation deploys.
func (c *Controller) estimateBucket(obs *sim.Observation) int {
	iso := c.cfg.Profiler.IsolationPerf(obs.Workload, obs.Allocation.Capacity())
	index := InterferenceIndex(obs.Perf, iso)
	fraction := EstimateInterferenceFraction(index, iso.Utilization)
	return BucketForFraction(fraction)
}

func (c *Controller) tuneAndStore(w services.Workload, class, bucket int) (cloud.Allocation, error) {
	frac := FractionForBucket(bucket)
	alloc, err := c.cfg.Tuner.Tune(w, frac)
	if err != nil {
		return cloud.Allocation{}, fmt.Errorf("core: tuning class %d bucket %d: %w", class, bucket, err)
	}
	c.tuningCount++
	if err := c.src.Put(class, bucket, alloc); err != nil {
		return cloud.Allocation{}, err
	}
	return alloc, nil
}

// decide wraps an allocation change into an action and records the
// adaptation time; unchanged allocations cost nothing.
func (c *Controller) decide(obs *sim.Observation, alloc cloud.Allocation, decisionTime time.Duration) sim.Action {
	if alloc.Equal(obs.TargetAllocation) {
		return sim.Action{}
	}
	c.lastDecision = obs.Now + decisionTime
	if c.adaptations == nil {
		// Right-sized up front: a day-scale run makes tens of
		// adaptations, and append's doubling ladder on a nil slice was
		// measurable across a 100k-VM fleet. A reset controller keeps
		// the storage instead.
		c.adaptations = make([]time.Duration, 0, 32)
	}
	c.adaptations = append(c.adaptations, decisionTime)
	c.scratchTarget = alloc
	return sim.Action{Target: &c.scratchTarget, DecisionTime: decisionTime}
}

// AdaptationTimes returns the decision latency of every allocation
// change the controller made (10 s on cache hits; signature time plus
// tuning time on misses) — the quantity Figure 8 compares against
// RightScale.
func (c *Controller) AdaptationTimes() []time.Duration {
	return append([]time.Duration(nil), c.adaptations...)
}

// UnforeseenCount returns how many profiling rounds fell back to full
// capacity.
func (c *Controller) UnforeseenCount() int { return c.unforeseenCount }

// TuningCount returns how many tuner invocations the runtime needed.
func (c *Controller) TuningCount() int { return c.tuningCount }

// InterferenceEvents returns how many times the interference loop
// fired.
func (c *Controller) InterferenceEvents() int { return c.interferenceHit }

// NeedsRelearning reports whether the clustering has gone stale:
// relearnThreshold consecutive profiling rounds failed to classify.
// The Relearner acts on this signal by re-running the learning phase.
func (c *Controller) NeedsRelearning() bool {
	return c.consecutiveUnforseen >= relearnThreshold
}

// ReplaceRepository swaps in a freshly learned repository and resets
// the staleness tracking; used by the Relearner after re-clustering.
func (c *Controller) ReplaceRepository(repo *Repository) error {
	src, err := SourceForRepository(repo)
	if err != nil {
		return err
	}
	c.cfg.Repository = repo
	c.src = src
	c.sigEvents = repo.EventsRef()
	c.consecutiveUnforseen = 0
	c.currentClass = -1
	c.currentBucket = 0
	return nil
}

var _ sim.Controller = (*Controller)(nil)
