package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
)

// The traced run's fleet part: a benchmark-owned VM driver — fleet.Run's
// learn step and per-VM loop rebuilt from the exported constructors —
// with timing wrappers on the three interfaces the engine exposes
// (core.DecisionSource, core.Tuner, sim.Controller). It must reproduce
// fleet.Run's per-VM aggregates exactly, which proves it is the same
// workload.

// vmGroup is one service template's shared state, as fleet.Run keeps it.
type vmGroup struct {
	name   string
	svc    services.Service
	repo   *core.Repository
	cache  *core.SharedTuningCache
	source core.DecisionSource
	learn  []services.Workload // the template's learning-day workloads
}

// learnGroups learns one repository per template from its first VM's
// learning day, tuning through the template's shared cache — the same
// seeds and inputs fleet.Run uses, so the same repositories.
func learnGroups(specs []sim.VMSpec, workers int) ([]*vmGroup, map[string]*vmGroup, error) {
	byName := map[string]*vmGroup{}
	var groups []*vmGroup
	for _, spec := range specs {
		name := spec.Service.Name()
		if byName[name] != nil {
			continue
		}
		g := &vmGroup{name: name, svc: spec.Service, cache: core.NewSharedTuningCache()}
		r := rng.New(spec.Seed)
		prof, err := core.NewProfiler(g.svc, r)
		if err != nil {
			return nil, nil, err
		}
		tuner, err := fleet.DefaultTuner(g.svc)
		if err != nil {
			return nil, nil, err
		}
		shared, err := core.NewSharedTuner(g.cache, g.svc, tuner)
		if err != nil {
			return nil, nil, err
		}
		g.learn = core.WorkloadsFromTrace(spec.LearnTrace, spec.Mix)
		g.repo, _, err = core.Learn(core.LearnConfig{
			Profiler:  prof,
			Tuner:     shared,
			Workloads: g.learn,
			Rng:       r,
			Workers:   workers,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("learning %s: %w", name, err)
		}
		byName[name] = g
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].name < groups[j].name })
	return groups, byName, nil
}

// bindSources points every group at its decision plane: an in-process
// core.Handle, or the rig's client after installing the repository.
func bindSources(groups []*vmGroup, rig *fleetRig) error {
	for _, g := range groups {
		if rig.cl == nil {
			h, err := core.NewHandle(g.repo)
			if err != nil {
				return err
			}
			g.source = h
			continue
		}
		if _, err := rig.cl.Install(g.name, g.repo); err != nil {
			return fmt.Errorf("installing template %s: %w", g.name, err)
		}
		src, err := rig.cl.Source(g.name, g.repo.EventsRef())
		if err != nil {
			return err
		}
		g.source = src
	}
	return nil
}

// capturedSig is one lookup the fleet issued, kept for the replay.
type capturedSig struct {
	template string
	bucket   int
	values   []float64
}

// vmProbe is one VM's trace state. It buffers spans locally (IDs are
// indices into spans; 0 is the VM's sim.run span) and is flushed into
// the ring when the VM finishes, so wrappers never contend.
type vmProbe struct {
	vm       int
	epoch    time.Time
	spans    []span
	parent   int // local ID new spans hang under
	template string
	captured []capturedSig
	values   []float64 // backs captured[i].values
}

// Per-VM buffer sizes: a VM of the benchmark fleet profiles once per
// trace hour and is sampled every stepSampling steps — ~50 spans and 24
// lookups a day. A VM that outgrows them just reallocates.
const (
	probeSpans  = 64
	probeSigs   = 32
	probeValues = 8 * probeSigs
)

// newVMProbes carves every VM's buffers out of three slabs allocated
// before the drive starts, so a traced drive allocates what an untraced
// one does and the collector treats both alike.
func newVMProbes(specs []sim.VMSpec, epoch time.Time) []vmProbe {
	n := len(specs)
	spans := make([]span, n*probeSpans)
	sigs := make([]capturedSig, n*probeSigs)
	values := make([]float64, n*probeValues)
	probes := make([]vmProbe, n)
	for i := range probes {
		probes[i] = vmProbe{
			vm: i, epoch: epoch, template: specs[i].Service.Name(), parent: noSpan,
			spans:    spans[i*probeSpans : i*probeSpans : (i+1)*probeSpans],
			captured: sigs[i*probeSigs : i*probeSigs : (i+1)*probeSigs],
			values:   values[i*probeValues : i*probeValues : (i+1)*probeValues],
		}
	}
	return probes
}

// add records a finished span under the current parent.
func (p *vmProbe) add(kind spanKind, start, end time.Time) {
	p.spans = append(p.spans, span{Kind: kind, Start: int64(start.Sub(p.epoch)), End: int64(end.Sub(p.epoch)), Parent: p.parent, VM: p.vm})
}

// begin reserves a span ahead of its children, which hang under it
// until end fills its times in and restores the parent.
func (p *vmProbe) begin(kind spanKind) int {
	p.spans = append(p.spans, span{Kind: kind, Parent: p.parent, VM: p.vm})
	p.parent = len(p.spans) - 1
	return p.parent
}

func (p *vmProbe) end(id int, start, end time.Time) {
	s := &p.spans[id]
	s.Start, s.End = int64(start.Sub(p.epoch)), int64(end.Sub(p.epoch))
	p.parent = s.Parent
}

// tracedSource times core.DecisionSource.
type tracedSource struct {
	inner core.DecisionSource
	p     *vmProbe
}

func (s tracedSource) Events() []metrics.Event { return s.inner.Events() }

func (s tracedSource) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	start := time.Now()
	res, err := s.inner.Lookup(sig, bucket)
	s.p.add(spanLookup, start, time.Now())
	// The signature's values are the profiler's scratch: copy them, into
	// one per-VM buffer so a traced VM allocates a handful of times.
	at := len(s.p.values)
	s.p.values = append(s.p.values, sig.Values...)
	s.p.captured = append(s.p.captured, capturedSig{template: s.p.template, bucket: bucket, values: s.p.values[at:len(s.p.values):len(s.p.values)]})
	return res, err
}

func (s tracedSource) Get(class, bucket int) (cloud.Allocation, bool, error) {
	start := time.Now()
	alloc, ok, err := s.inner.Get(class, bucket)
	s.p.add(spanGet, start, time.Now())
	return alloc, ok, err
}

func (s tracedSource) Put(class, bucket int, alloc cloud.Allocation) error {
	start := time.Now()
	err := s.inner.Put(class, bucket, alloc)
	s.p.add(spanPut, start, time.Now())
	return err
}

// tracedTuner times core.Tuner as the controller calls it, shared
// tuning-cache hits included.
type tracedTuner struct {
	inner core.Tuner
	p     *vmProbe
}

func (t tracedTuner) Tune(w services.Workload, interference float64) (cloud.Allocation, error) {
	start := time.Now()
	alloc, err := t.inner.Tune(w, interference)
	t.p.add(spanTune, start, time.Now())
	return alloc, err
}

func (t tracedTuner) Duration() time.Duration { return t.inner.Duration() }

// stepSampling is how many controller steps pass per timed one: two
// clock reads cost more than an idle step, so timing every step would
// measure the clock.
const stepSampling = 64

// tracedController times one in stepSampling sim.Controller steps;
// decision-plane spans of a sampled step hang under its span.
type tracedController struct {
	inner sim.Controller
	p     *vmProbe
	n     int
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) Step(o *sim.Observation) (sim.Action, error) {
	c.n++
	if c.n%stepSampling != 1 {
		return c.inner.Step(o)
	}
	id := c.p.begin(spanStep)
	start := time.Now()
	act, err := c.inner.Step(o)
	c.p.end(id, start, time.Now())
	return act, err
}

// runVM is fleet's per-VM loop: a private profiler and tuner, a
// controller over the group's decision source, one sim.Run. With a
// probe, the three interfaces are wrapped.
func runVM(spec sim.VMSpec, g *vmGroup, p *vmProbe) (*sim.Result, error) {
	if spec.JoinAt != 0 || spec.LeaveAt != 0 {
		return nil, errors.New("the benchmark fleet has no membership windows")
	}
	prof, err := core.NewProfiler(spec.Service, rng.New(spec.Seed))
	if err != nil {
		return nil, err
	}
	inner, err := fleet.DefaultTuner(spec.Service)
	if err != nil {
		return nil, err
	}
	shared, err := core.NewSharedTuner(g.cache, spec.Service, inner)
	if err != nil {
		return nil, err
	}
	var tuner core.Tuner = shared
	source := g.source
	if p != nil {
		tuner = tracedTuner{inner: shared, p: p}
		source = tracedSource{inner: g.source, p: p}
	}
	ctl, err := core.NewController(core.ControllerConfig{Source: source, Profiler: prof, Tuner: tuner, Service: spec.Service})
	if err != nil {
		return nil, err
	}
	var controller sim.Controller = ctl
	if p != nil {
		controller = &tracedController{inner: ctl, p: p}
	}
	return sim.Run(sim.Config{
		Service:        spec.Service,
		Trace:          spec.RunTrace,
		Mix:            spec.Mix,
		MixFn:          spec.MixFn,
		Controller:     controller,
		Step:           time.Minute,
		Initial:        spec.Service.MaxAllocation(),
		Interference:   spec.Interference,
		DiscardRecords: true,
	})
}

// fleetSpans is what one traced drive yields besides the results.
type fleetSpans struct {
	lookupNs, putNs, tuneNs, stepNs []float64
	gets                            int
	runNs, childNs                  float64 // summed over VMs: sim.run spans, and their decision-plane + tuner spans
	steps, spans                    int
	captured                        []capturedSig
}

// driveFleet runs every VM through runVM on `workers` goroutines and
// returns the per-VM results and the run-phase wall time. With a ring,
// every VM is traced.
func driveFleet(specs []sim.VMSpec, groups map[string]*vmGroup, workers int, ring *spanRing) ([]*sim.Result, time.Duration, *fleetSpans, error) {
	results := make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	var mu sync.Mutex
	fs := &fleetSpans{}
	var probes []vmProbe
	if ring != nil {
		probes = newVMProbes(specs, ring.epoch)
	}
	// Start from a collected heap: a mark phase overlapping the drive
	// taxes every pointer store in sim.Run, and whether one starts would
	// depend on what the set-up before this allocated.
	runtime.GC()
	start := time.Now()
	parallel.Do(workers, len(specs), func(i int) {
		g := groups[specs[i].Service.Name()]
		if ring == nil {
			results[i], errs[i] = runVM(specs[i], g, nil)
			return
		}
		p := &probes[i]
		run := p.begin(spanRun)
		runStart := time.Now()
		results[i], errs[i] = runVM(specs[i], g, p)
		runEnd := time.Now()
		p.end(run, runStart, runEnd)
		if errs[i] != nil {
			return
		}
		ring.flush(p.spans)
		mu.Lock()
		defer mu.Unlock()
		fs.runNs += float64(runEnd.Sub(runStart))
		fs.steps += results[i].Steps
		fs.spans += len(p.spans)
		fs.captured = append(fs.captured, p.captured...)
		for _, s := range p.spans[1:] {
			d := float64(s.End - s.Start)
			switch s.Kind {
			case spanStep:
				fs.stepNs = append(fs.stepNs, d)
				continue // its children are counted on their own
			case spanLookup:
				fs.lookupNs = append(fs.lookupNs, d)
			case spanPut:
				fs.putNs = append(fs.putNs, d)
			case spanTune:
				fs.tuneNs = append(fs.tuneNs, d)
			case spanGet:
				fs.gets++
			}
			fs.childNs += d
		}
	})
	elapsed := time.Since(start)
	return results, elapsed, fs, errors.Join(errs...)
}

// tracePairs is how many untraced/traced drives the overhead is the
// median of.
const tracePairs = 3

// driverDigest digests a drive the way digestFleet digests fleet.Run.
func driverDigest(results []*sim.Result, groups []*vmGroup, rig *fleetRig) (fleetDigest, error) {
	d := fleetDigest{vms: make([]vmAgg, len(results))}
	for i, vr := range results {
		d.vms[i] = vmAgg{steps: vr.Steps, slo: vr.SLOViolationFraction, cost: vr.TotalCost}
		d.steps += vr.Steps
	}
	for _, g := range groups {
		if rig.cl == nil {
			h, m := g.repo.LookupCounts()
			d.hits += h
			d.misses += m
			continue
		}
		st, err := rig.cl.Stats(g.name)
		if err != nil {
			return d, err
		}
		d.hits += st.Hits
		d.misses += st.Misses
	}
	return d, nil
}

// traceFleet is the traced run of one fleet workload: fleet.Run on the
// trace prefix as the reference, then untraced and traced drives of
// the benchmark's own VM driver in the same deployment shape, then the
// decision-budget replay of the signatures the traced drive captured.
func (e *env) traceFleet(shape string) error {
	vms := e.size.TraceVMs
	specs, err := scenario(e.seed, vms)
	if err != nil {
		return err
	}
	rig, err := standUpFleet(shape, e.callers)
	if err != nil {
		return err
	}
	refRes, err := fleet.Run(fleet.Config{Specs: specs, Workers: e.callers, DiscardRecords: true, Remote: rig.cl})
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace reference run: %w", err)
	}
	ref := digestFleet(refRes)

	// drive sets a fresh system up, runs the driver over it, and checks
	// the result against fleet.Run's.
	drive := func(ring *spanRing, workers int) (time.Duration, *fleetSpans, []*vmGroup, error) {
		specs, err := scenario(e.seed, vms)
		if err != nil {
			return 0, nil, nil, err
		}
		rig, err := standUpFleet(shape, e.callers)
		if err != nil {
			return 0, nil, nil, err
		}
		defer rig.close()
		groups, byName, err := learnGroups(specs, e.callers)
		if err != nil {
			return 0, nil, nil, err
		}
		if err := bindSources(groups, rig); err != nil {
			return 0, nil, nil, err
		}
		results, elapsed, fs, err := driveFleet(specs, byName, workers, ring)
		if err != nil {
			return 0, nil, nil, err
		}
		got, err := driverDigest(results, groups, rig)
		if err != nil {
			return 0, nil, nil, err
		}
		if err := got.equal(ref); err != nil {
			return 0, nil, nil, fmt.Errorf("check failed: the benchmark's VM driver differs from fleet.Run: %w", err)
		}
		return elapsed, fs, groups, nil
	}

	var fs *fleetSpans
	var groups []*vmGroup
	for i := 0; i < tracePairs; i++ {
		off, _, _, err := drive(nil, e.callers)
		if err != nil {
			return err
		}
		var on time.Duration
		if on, fs, groups, err = drive(e.spans, e.callers); err != nil {
			return err
		}
		e.rec.add("trace.overhead_frac", on.Seconds()/off.Seconds()-1)
	}
	// One more traced drive with a single caller: the decision budget is
	// replayed on one goroutine, so the end-to-end median it must add up
	// to is the one a lone caller sees. The gap to the callers-wide
	// median above is contention, which belongs to no layer.
	_, solo, _, err := drive(e.spans, 1)
	if err != nil {
		return err
	}
	e.passed("the benchmark's VM driver reproduces fleet.Run's per-VM aggregates exactly (%d VMs, untraced and traced)", vms)

	// Span medians are net of the clock's own cost, which is the size of
	// an idle controller step.
	clock := clockNs()
	net := func(ns []float64) float64 {
		if len(ns) == 0 {
			return 0
		}
		return math.Max(median(ns)-clock, 0)
	}
	e.rec.set("core.source_lookup_p50_us", net(fs.lookupNs)/1e3)
	e.rec.set("core.source_lookup_solo_p50_us", net(solo.lookupNs)/1e3)
	e.rec.set("core.source_lookup_count", float64(len(fs.lookupNs)))
	e.rec.set("core.source_get_count", float64(fs.gets))
	e.rec.set("core.source_put_count", float64(len(fs.putNs)))
	e.rec.set("core.source_put_p50_us", net(fs.putNs)/1e3)
	e.rec.set("core.tune_count", float64(len(fs.tuneNs)))
	e.rec.set("core.tune_p50_us", net(fs.tuneNs)/1e3)
	e.rec.set("core.controller_step_ns", net(fs.stepNs))
	// sim.Run's self time per step: the run spans minus the decision
	// plane and tuner spans under them, minus the typical controller
	// step and the clock reads themselves. Profiling rounds happen
	// inside the controller and are priced by the replay
	// (core.profile_ns), so they land here.
	e.rec.set("sim.run_self_ns_per_step", (fs.runNs-fs.childNs-clock*float64(fs.spans))/float64(fs.steps)-net(fs.stepNs))

	return e.replayBudget(shape, groups, fs.captured, net(solo.lookupNs))
}

// clockNs is what one span costs when nothing happens inside it: the
// median distance between two consecutive clock reads.
func clockNs() float64 {
	gaps := make([]float64, 1001)
	for i := range gaps {
		start := time.Now()
		gaps[i] = float64(time.Since(start))
	}
	return median(gaps)
}
