// Package sim is the discrete-time engine that drives the evaluation:
// it replays a load trace against a simulated service deployed on the
// simulated cloud, invokes a resource-management controller, and
// accounts latency/QoS, SLO violations, provisioning cost, and
// adaptation episodes — everything the paper's Figures 6–11 plot.
package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/trace"
)

// Observation is what a controller sees at each control step.
type Observation struct {
	// Now is the offset from the simulation start.
	Now time.Duration
	// Workload is the currently offered workload.
	Workload services.Workload
	// Perf is the service performance measured over the last step.
	Perf services.Perf
	// SLOViolated reports whether Perf violates the service SLO.
	SLOViolated bool
	// Allocation is the allocation currently serving.
	Allocation cloud.Allocation
	// TargetAllocation is the most recently requested allocation
	// (may still be warming up).
	TargetAllocation cloud.Allocation
	// InTransition reports whether a change is still warming up.
	InTransition bool
}

// Action is a controller's response to an observation.
type Action struct {
	// Target, when non-nil, requests a new allocation. The engine
	// copies the pointed-to value before the next Step, so controllers
	// may back it with reused storage (a scratch field) instead of
	// boxing a fresh allocation per decision.
	Target *cloud.Allocation
	// DecisionTime is how long the controller needed to produce this
	// decision (DejaVu: ~10 s of signature collection; tuning: minutes).
	// The allocation request takes effect only after this delay.
	DecisionTime time.Duration
	// Wake and WakeOnViolation are the controller's wake hint: when it
	// next needs calling (see Controller.Step). Wake is an offset from
	// the simulation start; WakeOnViolation also asks for any earlier
	// step that violates the SLO. The zero hint asks for the next step,
	// so a controller that never sets them is called on every step.
	Wake            time.Duration
	WakeOnViolation bool
	// Four fields at most: Go keeps a struct of up to four fields in
	// registers, and the step loop and every controller pass an Action
	// on each call; a fifth moves it to memory. A controller parks with
	// ErrParked, not a field.
}

// ErrParked is what Controller.Step returns, as is, to park the run: the
// controller is waiting on an answer it does not have yet (a decision
// source's pending lookup). The engine applies nothing and pauses the
// run where it is; the next Runner.Advance calls Step again with the
// same Observation. Run, which cannot pause, fails on it.
var ErrParked = errors.New("sim: controller parked")

// Controller is a resource-management policy under evaluation.
type Controller interface {
	// Name identifies the controller in reports.
	Name() string
	// Step is invoked on every step that its last Action's wake hint
	// asked for — at or after Wake, or SLO-violating while
	// WakeOnViolation is set — and on every step where the deployment
	// snapshot moved (a pending change became active, or the step after
	// an Apply). With a MixFn or Interference closure configured it is
	// invoked on every step. A controller that sleeps promises that a
	// call on any step it slept through would have returned the empty
	// Action and changed nothing, which lets Run skip such steps in one
	// move. The observation is owned by the engine and reused across
	// steps — controllers must treat it as read-only and must not
	// retain it past the call.
	// (Passing a pointer keeps the per-call cost flat: the engine
	// fills one Observation in place instead of copying ~200 bytes
	// through the interface on every call.)
	Step(obs *Observation) (Action, error)
}

// Config describes one simulation run.
type Config struct {
	// Service is the simulated service.
	Service services.Service
	// Trace provides the offered load, already scaled to client
	// counts (not normalized percent).
	Trace *trace.Trace
	// Mix is the request mix the run starts on; MixShifts, sorted by
	// At, changes it mid-run (workload-type experiments). The step loop
	// touches the mix only on the step a shift takes effect.
	Mix       services.Mix
	MixShifts []MixShift
	// MixFn overrides Mix on every step. It forces the loop to re-read
	// the mix, re-verify the operating point and call the controller
	// each simulated minute, which is what MixShifts exists to avoid;
	// setting both is an error.
	//
	// Deprecated: use MixShifts. Kept only because the frozen
	// benchmark/tracefleet.go still sets it.
	MixFn func(now time.Duration) services.Mix
	// Controller is the policy under test.
	Controller Controller
	// Step is the simulation step (default 1 minute).
	Step time.Duration
	// Initial is the starting allocation.
	Initial cloud.Allocation
	// Interference optionally sets the co-located contention
	// fraction over time; nil means no interference. Like MixFn, a
	// closure makes Run step, and call the controller, every minute.
	Interference func(now time.Duration) float64
	// StabilizationPenalty is the extra relative latency right after
	// an allocation change completes, decaying over the service's
	// stabilization period (default 0.3 = +30%).
	StabilizationPenalty float64
	// Records optionally provides a preallocated backing buffer for
	// the step records (used from length 0). The fleet control plane
	// carves per-VM buffers out of one arena slab so a whole fleet
	// run costs a single record allocation; when nil, Run allocates
	// an exact-capacity buffer itself (the step count is known from
	// the trace), so records never grow-and-copy either way.
	Records []StepRecord
	// DiscardRecords drops the per-step records and keeps only the
	// aggregates (Steps, SLOViolationFraction, TotalCost, Episodes,
	// mean allocation). The 100k-VM scale benchmarks use it: at 48
	// bytes per step record a fleet of that size would need ~7 GB of
	// record memory a day for output nobody reads. Every aggregate is
	// accumulated from exactly the values the records would have held,
	// so a discarding run and a recording run agree bit-for-bit on
	// everything but Records itself.
	DiscardRecords bool
}

// MixShift switches a run to Mix from the first step at or after At.
// Shifts at or before the first step apply from it; where several are
// due on one step the last wins.
type MixShift struct {
	At  time.Duration
	Mix services.Mix
}

// Steps returns the number of simulation steps Run will execute for a
// trace of the given duration at the given step — the exact capacity
// an arena should reserve per VM.
func Steps(total, step time.Duration) int {
	if total <= 0 || step <= 0 {
		return 0
	}
	return int((total + step - 1) / step)
}

// AllocRef is a pointer-free allocation reference: the instance type
// as a catalog index plus the count. Step records store AllocRefs
// instead of cloud.Allocation values so the fleet's step-record arena
// contains no pointers at all — the GC marks the whole multi-million-
// record slab without scanning it (at vms=100 that scan was a
// measurable share of run-phase GC work).
type AllocRef struct {
	Type  cloud.TypeID
	Count int32
}

// RefOf compacts an allocation into its record form.
func RefOf(a cloud.Allocation) AllocRef {
	return AllocRef{Type: a.Type.ID(), Count: int32(a.Count)}
}

// Capacity returns the referenced allocation's total capacity in
// large-instance units.
func (a AllocRef) Capacity() float64 {
	return float64(a.Count) * a.Type.Instance().Capacity
}

// StepRecord is one simulation step's outcome. The layout is
// deliberately pointer-free (see AllocRef); TestStepRecordPointerFree
// pins that property.
type StepRecord struct {
	Clients      float64
	LatencyMs    float64
	QoSPercent   float64
	Alloc        AllocRef
	SLOViolated  bool
	Interference float64
}

// Episode is one adaptation episode: from the controller issuing a
// change until the deployment settles.
type Episode struct {
	// Duration is how long until the new allocation was serving.
	Duration time.Duration
}

// Result aggregates a simulation run.
type Result struct {
	Controller string
	// Records holds the per-step outcomes; empty when the run was
	// configured with DiscardRecords.
	Records []StepRecord
	// Steps is the number of simulation steps executed — equal to
	// len(Records) for recording runs, and the only step count a
	// discarding run reports.
	Steps int
	// TotalCost is the provisioning bill over the run (USD).
	TotalCost float64
	// SLOViolationFraction is the fraction of steps violating the SLO.
	SLOViolationFraction float64
	// Episodes lists adaptation episodes.
	Episodes []Episode
	// Decisions is the number of allocation-change requests issued.
	Decisions int

	// allocSum accumulates the per-step allocated instance count so
	// MeanAllocatedInstances works without the records.
	allocSum float64
}

// MeanAdaptation returns the mean episode duration, or 0 when no
// episodes occurred.
func (r *Result) MeanAdaptation() time.Duration {
	if len(r.Episodes) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range r.Episodes {
		total += e.Duration
	}
	return total / time.Duration(len(r.Episodes))
}

// MeanAllocatedInstances returns the time-averaged instance count.
// Runs that discarded their records use the incrementally accumulated
// sum; hand-assembled Results keep working off Records.
func (r *Result) MeanAllocatedInstances() float64 {
	if len(r.Records) == 0 {
		if r.Steps > 0 {
			return r.allocSum / float64(r.Steps)
		}
		return 0
	}
	sum := 0.0
	for _, rec := range r.Records {
		sum += float64(rec.Alloc.Count)
	}
	return sum / float64(len(r.Records))
}

// CostSavingsVs returns the relative cost saving of this run against a
// reference cost (e.g. the fixed-maximum allocation), in [0, 1].
func (r *Result) CostSavingsVs(referenceCost float64) float64 {
	if referenceCost <= 0 {
		return 0
	}
	s := 1 - r.TotalCost/referenceCost
	if s < 0 {
		return 0
	}
	return s
}

// Run executes the simulation on a fresh Runner (see Runner.Run).
func Run(cfg Config) (*Result, error) {
	var r Runner // stays on the stack: only its observation, episode log and result escape
	return r.Run(cfg)
}

// Runner is one simulation run that can pause: Advance steps it until
// the controller parks or the trace ends, and the next Advance picks it
// up where it parked. A caller holding many runners advances them in
// turn on one goroutine — the fleet's lockstep blocks park every VM at
// its lookup, answer the block in one frame, and advance them again.
// Reset starts a Runner over on the next run in place, so a caller
// that runs many in sequence (the fleet's workers) reuses one.
type Runner struct {
	cfg Config // defaults filled in
	dep cloud.Deployment
	res *Result
	// obs is the one observation the engine fills in place and hands the
	// controller (see Controller.Step); a parked step keeps it for the
	// re-call. Its workload is the run's only copy. It is a pointer, so
	// that handing it out leaves the Runner itself where it was made;
	// Reset clears it and keeps it.
	obs *Observation
	// episodes collects the run's adaptation episodes; the run's end
	// copies them into the result at their exact count, and Reset keeps
	// the storage for the next run.
	episodes []Episode

	// The step loop's state, kept in Advance's locals while it runs and
	// saved here only when the controller parks.
	now                 time.Duration
	violations          int
	point               services.Perf
	pointCap            float64
	pointMoved          bool
	episodeStart        time.Duration
	lastChangeEffective time.Duration
	prevAlloc           cloud.Allocation
	shifts              []MixShift // those still to take effect
	active, target      cloud.Allocation
	inTransition        bool
	readyAt             time.Duration
	snapMoved           bool
	activeCap           float64
	activeRef           AllocRef
	nextSampleAt        time.Duration
	wake                time.Duration
	wakeOnViolation     bool
	// Of the parked step: what its re-call needs from the part of the
	// step that ran before it.
	violated, stabilising bool

	parked, done bool
}

// Reset validates cfg, failing where Run would, and positions r at the
// first step of a new run over it, whatever r ran before — a finished
// run, a parked one, one that failed, or none (a zero Runner). The
// observation and the episode log keep their storage. Every run gets a Result of its own, so the
// previous run's Result stays its caller's.
func (r *Runner) Reset(cfg Config) error {
	if cfg.Service == nil {
		return errors.New("sim: Service must be set")
	}
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return errors.New("sim: Trace must be non-empty")
	}
	if cfg.Trace.Step <= 0 {
		return fmt.Errorf("sim: trace step %v must be positive", cfg.Trace.Step)
	}
	if cfg.Controller == nil {
		return errors.New("sim: Controller must be set")
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Minute
	}
	if cfg.StabilizationPenalty == 0 {
		cfg.StabilizationPenalty = 0.3
	}
	if cfg.Mix.Name == "" && cfg.MixFn == nil {
		cfg.Mix = cfg.Service.DefaultMix()
	}
	if cfg.MixFn != nil && len(cfg.MixShifts) > 0 {
		return errors.New("sim: set MixShifts or the deprecated MixFn, not both")
	}
	for i, s := range cfg.MixShifts {
		if s.Mix.Name == "" {
			return fmt.Errorf("sim: MixShifts[%d] has an empty Mix", i)
		}
		if i > 0 && s.At < cfg.MixShifts[i-1].At {
			return fmt.Errorf("sim: MixShifts[%d] at %v sorts before its predecessor", i, s.At)
		}
	}
	dep, err := cloud.NewDeployment(cfg.Initial)
	if err != nil {
		return fmt.Errorf("sim: initial allocation: %w", err)
	}
	obs, episodes := r.obs, r.episodes[:0]
	if obs == nil {
		obs = new(Observation)
	}
	*obs = Observation{Workload: services.Workload{Mix: cfg.Mix}}
	*r = Runner{
		cfg:                 cfg,
		dep:                 *dep,
		res:                 &Result{Controller: cfg.Controller.Name()},
		obs:                 obs,
		episodes:            episodes,
		episodeStart:        -1,       // no episode
		lastChangeEffective: -1 << 62, // no transient yet
		prevAlloc:           cfg.Initial,
		shifts:              cfg.MixShifts,
		pointMoved:          true,
		snapMoved:           true,
	}
	switch {
	case cfg.DiscardRecords:
		// Aggregates only; no record storage at all.
	case cfg.Records != nil:
		r.res.Records = cfg.Records[:0]
	default:
		r.res.Records = make([]StepRecord, 0, Steps(cfg.Trace.Duration(), cfg.Step))
	}
	r.active, r.target, r.inTransition = r.dep.Status(0)
	r.readyAt, _ = r.dep.PendingReadyAt()
	return nil
}

// Run resets r for cfg and steps it to the end of the trace in one
// Advance. A controller that parks (ErrParked) needs Advance to be
// answered; under Run it is an error.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	parked, err := r.Advance()
	if err != nil {
		return nil, err
	}
	if parked {
		return nil, fmt.Errorf("sim: controller %s parked outside a Runner", r.cfg.Controller.Name())
	}
	return r.res, nil
}

// Result returns the run's outcome. It is complete once Advance has
// returned (false, nil).
func (r *Runner) Result() *Result { return r.res }

// Advance steps the run until its controller parks (parked is true) or
// the trace ends. A park applies nothing and leaves the step where it
// was: the next Advance calls Controller.Step again with the same
// Observation, and that step's record is not written twice. After the
// end or an error the run is over, and Advance returns an error.
func (r *Runner) Advance() (parked bool, err error) {
	if r.done {
		return false, errors.New("sim: Advance on a finished run")
	}
	cfg, dep, res := &r.cfg, &r.dep, r.res
	slo := cfg.Service.SLO()
	stab := cfg.Service.StabilizationPeriod()
	total := cfg.Trace.Duration()

	// Perf is a pure function of the operating point (mix, clients,
	// capacity), and that point holds for a whole trace sample unless a
	// mix shift, an interference change or a resize moves it. The loop
	// calls Perf only on such a step and carries the un-penalised
	// result across the rest, so results are bit-identical to calling
	// it every step.
	point, pointCap, pointMoved := r.point, r.pointCap, r.pointMoved

	// Episode tracking.
	episodeStart := r.episodeStart
	lastChangeEffective := r.lastChangeEffective
	prevAlloc := r.prevAlloc

	// The loop moves no large structs: it fills the runner's observation
	// in place and hands the controller a read-only pointer, and the mix
	// in it is written only when a shift takes effect.
	obs := r.obs
	w := &obs.Workload
	shifts := r.shifts
	// The deployment snapshot (serving allocation, requested target,
	// warm-up flag) only changes when the controller applies a change
	// or a pending change settles. It is refreshed exactly there, and
	// snapMoved has the next step redo what derives from it: capacity,
	// the record form, the transient check and the controller's view,
	// which survives in between by Controller.Step's read-only contract.
	active, target, inTransition := r.active, r.target, r.inTransition
	readyAt, snapMoved := r.readyAt, r.snapMoved
	activeCap, activeRef := r.activeCap, r.activeRef
	// Traces are zero-order hold: the load only changes on sample
	// boundaries, so At (an integer division per call) runs once per
	// trace sample instead of once per step.
	nextSampleAt := r.nextSampleAt
	// The controller's wake hint from its last call; the zero value
	// calls it on the first step. A closure can change anything on any
	// minute, so with one configured every step is processed and calls it.
	wake, wakeOnViolation := r.wake, r.wakeOnViolation
	perMinute := cfg.MixFn != nil || cfg.Interference != nil
	violations := r.violations
	// A parked step re-enters at its controller call.
	resume := r.parked
	r.parked = false
	for now, n := r.now, time.Duration(1); now < total; now += n * cfg.Step {
		var violated, stabilising, call bool
		if resume {
			resume, call = false, true
			violated, stabilising = r.violated, r.stabilising
		} else {
			for len(shifts) > 0 && now >= shifts[0].At {
				w.Mix = shifts[0].Mix
				shifts = shifts[1:]
				pointMoved = true
			}
			if cfg.MixFn != nil {
				if mix := cfg.MixFn(now); mix != w.Mix {
					w.Mix = mix
					pointMoved = true
				}
			}
			if now >= nextSampleAt {
				w.Clients = cfg.Trace.At(now)
				nextSampleAt = (now/cfg.Trace.Step + 1) * cfg.Trace.Step
				pointMoved = true
			}

			interf := 0.0
			if cfg.Interference != nil {
				if interf = cfg.Interference(now); interf < 0 || interf >= 1 {
					r.done = true
					return false, fmt.Errorf("sim: interference at %v: fraction %v out of [0,1)", now, interf)
				}
			}

			// A pending change that finished warming up becomes active
			// now, exactly when the per-step settle used to promote it.
			if inTransition && now >= readyAt {
				active, target, inTransition = dep.Status(now)
				snapMoved = true
			}
			moved := snapMoved
			if snapMoved {
				snapMoved = false
				activeCap = active.Capacity()
				activeRef = RefOf(active)
				// Allocation-change transients: re-partitioning and warm-up.
				if !active.Equal(prevAlloc) {
					lastChangeEffective = now
					prevAlloc = active
				}
				obs.Allocation = active
				obs.TargetAllocation = target
				obs.InTransition = inTransition
			}

			// Effective capacity from the cached snapshot — the same value
			// dep.EffectiveCapacity(now) returns, without re-settling.
			capacity := activeCap * (1 - interf)
			if pointMoved || capacity != pointCap {
				point = cfg.Service.Perf(*w, capacity)
				pointCap, pointMoved = capacity, false
			}
			perf := point
			stabilising = stab > 0 && now >= lastChangeEffective && now < lastChangeEffective+stab
			if stabilising {
				frac := 1 - float64(now-lastChangeEffective)/float64(stab)
				perf.LatencyMs *= 1 + cfg.StabilizationPenalty*frac
			}

			violated = !slo.Met(perf)
			if !cfg.DiscardRecords {
				// Write the record into the preallocated slice in place; a
				// build-then-append would copy the 48-byte struct twice.
				if len(res.Records) < cap(res.Records) {
					res.Records = res.Records[:len(res.Records)+1]
				} else { // undersized caller-provided buffer
					res.Records = append(res.Records, StepRecord{})
				}
				rec := &res.Records[len(res.Records)-1]
				rec.Clients = w.Clients
				rec.LatencyMs = perf.LatencyMs
				rec.QoSPercent = perf.QoSPercent
				rec.Alloc = activeRef
				rec.SLOViolated = violated
				rec.Interference = interf
			}

			call = perMinute || moved || now >= wake || wakeOnViolation && violated
			if call {
				obs.Now = now
				obs.Perf = perf
				obs.SLOViolated = violated
			}
		}

		if call {
			action, err := cfg.Controller.Step(obs)
			if err == ErrParked {
				r.now, r.violations = now, violations
				r.point, r.pointCap, r.pointMoved = point, pointCap, pointMoved
				r.episodeStart = episodeStart
				r.lastChangeEffective, r.prevAlloc = lastChangeEffective, prevAlloc
				r.shifts = shifts
				r.active, r.target, r.inTransition = active, target, inTransition
				r.readyAt, r.snapMoved = readyAt, snapMoved
				r.activeCap, r.activeRef = activeCap, activeRef
				r.nextSampleAt = nextSampleAt
				r.wake, r.wakeOnViolation = wake, wakeOnViolation
				r.violated, r.stabilising = violated, stabilising
				r.parked = true
				return true, nil
			}
			if err != nil {
				r.done = true
				return false, fmt.Errorf("sim: controller %s at %v: %w", cfg.Controller.Name(), now, err)
			}
			wake, wakeOnViolation = action.Wake, action.WakeOnViolation
			if action.Target != nil && !action.Target.Equal(target) {
				applyAt := now + action.DecisionTime
				if err := dep.Apply(applyAt, *action.Target); err != nil {
					r.done = true
					return false, fmt.Errorf("sim: apply at %v: %w", applyAt, err)
				}
				res.Decisions++
				if episodeStart < 0 {
					episodeStart = now
				}
				// Refresh the snapshot: Apply may settle a previous change
				// and always installs a new pending one.
				active, target, inTransition = dep.Status(now)
				readyAt, _ = dep.PendingReadyAt()
				snapMoved = true
			}
		}
		// An episode ends when nothing is pending anymore (the cached
		// snapshot answers the one-step-ahead peek the engine used to
		// settle the deployment for).
		if episodeStart >= 0 && !(inTransition && readyAt > now+cfg.Step) {
			r.episodes = append(r.episodes, Episode{Duration: now + cfg.Step - episodeStart})
			episodeStart = -1
		}

		// The span: this step and the n−1 after it are one. Unless
		// something above changes per step, every input of this step
		// holds until the next event — a trace sample, a mix shift, a
		// settle, the step that closes an open episode, the controller's
		// wake — so those steps repeat this one's record with the
		// controller asleep. Integer-valued float64 sums below 2⁵³
		// are exact, so n·count adds what n separate adds would.
		n = 1
		if !(perMinute || snapMoved || stabilising || wakeOnViolation && violated) {
			until := min(nextSampleAt, wake, total)
			if len(shifts) > 0 {
				until = min(until, shifts[0].At)
			}
			if inTransition {
				until = min(until, readyAt)
			}
			if episodeStart >= 0 {
				until = min(until, readyAt-cfg.Step)
			}
			if until > now+cfg.Step {
				n = (until - now + cfg.Step - 1) / cfg.Step
			}
		}
		if n > 1 && !cfg.DiscardRecords {
			rec := res.Records[len(res.Records)-1]
			for i := time.Duration(1); i < n; i++ {
				res.Records = append(res.Records, rec)
			}
		}
		res.Steps += int(n)
		res.allocSum += float64(n) * float64(activeRef.Count)
		if violated {
			violations += int(n)
		}
	}

	r.done = true
	if len(r.episodes) > 0 {
		res.Episodes = make([]Episode, len(r.episodes))
		copy(res.Episodes, r.episodes)
	}
	res.TotalCost = dep.Cost(total)
	res.SLOViolationFraction = float64(violations) / float64(res.Steps)
	return false, nil
}

// FixedMaxCost returns the cost of holding the service's full-capacity
// allocation for the duration of the trace — the paper's
// overprovisioning reference ("compared to a fixed, maximum
// allocation").
func FixedMaxCost(svc services.Service, tr *trace.Trace) float64 {
	return svc.MaxAllocation().CostFor(tr.Duration())
}
