// Package fleet is the multi-tenant control plane: it drives many
// logical VMs — each with its own DejaVu runtime controller and
// simulated deployment — concurrently against one shared signature
// repository per service template. Tuning results learned on
// one VM become instantly reusable by every other VM of the same
// template, which is the paper's cross-deployment "déjà vu" effect
// (§6: an application "can benefit from the experience of other cloud
// tenants as well") realized at fleet scale.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

// step is every VM's simulation step.
const step = time.Minute

// Config drives one fleet run.
type Config struct {
	// Specs are the fleet's VMs (from sim.GenerateScenario or built
	// by hand).
	Specs []sim.VMSpec
	// Workers bounds control-plane concurrency: how many VM
	// simulations run at once (default GOMAXPROCS).
	Workers int
	// InterferenceDetection enables each controller's Eq. 2 feedback
	// loop; leave false only to reproduce the oblivious baseline.
	InterferenceDetection bool
	// OnDemandProfiling lets controllers profile on SLO violations
	// between periodic rounds.
	OnDemandProfiling bool
	// SkipLearning reuses Repositories when set: keys are service
	// names, values pre-learned repositories (e.g. loaded with
	// core.LoadRepository). Templates without an entry still learn.
	SkipLearning map[string]*core.Repository
	// Remote, when set, drives a live dejavud instead of in-process
	// repositories: each template's learned repository is installed
	// into the daemon under the service name and the group statistics
	// are read back from the daemon. On either decision plane — the
	// stream (client.Config.TCPAddr) or binary HTTP, a decision front
	// included — lookups travel one frame per lockstep block of
	// same-template VMs (see lockstep.go), one frame per interference
	// bucket present in the block. Get and put are one call each.
	// Learning (and the shared tuning cache) stays local — the daemon
	// serves decisions, not profiling environments.
	Remote *client.Client
	// DiscardRecords drops every VM's per-step records and keeps only
	// the aggregates (see sim.Config.DiscardRecords). The 100k-VM
	// scale benchmarks set it: the step arena would otherwise hold
	// >10 GB of records nobody reads. Aggregated results are
	// bit-identical to a recording run's.
	DiscardRecords bool
}

// GroupStats reports one service template's shared-cache effectiveness.
type GroupStats struct {
	// Service names the template.
	Service string
	// VMs is how many fleet VMs run the template.
	VMs int
	// Classes is the learned workload-class count.
	Classes int
	// RepoHitRate is the shared repository's lookup hit rate over
	// the whole run, all VMs combined.
	RepoHitRate float64
	// RepoHits and RepoMisses are the raw lookup counters.
	RepoHits, RepoMisses int64
	// RepoEntries is the number of cached (class, bucket)
	// allocations at the end of the run.
	RepoEntries int
	// TunerHits and TunerMisses count shared tuning-cache reuse:
	// each hit is a tuning sweep some VM skipped because a peer
	// already ran it.
	TunerHits, TunerMisses int
}

// Result aggregates a fleet run.
type Result struct {
	// VMResults holds each VM's simulation result, indexed like
	// Config.Specs.
	VMResults []*sim.Result
	// Groups holds per-template stats, sorted by service name.
	Groups []GroupStats
	// Bill is the per-tenant billing aggregation.
	Bill *cloud.FleetBill
	// TotalSteps is the number of simulation steps executed across
	// the fleet.
	TotalSteps int
	// Elapsed is the wall-clock time of the concurrent run phase
	// (learning excluded).
	Elapsed time.Duration
	// LearningTime is the wall-clock time of the per-template
	// learning phase.
	LearningTime time.Duration
	// StepPhase digests the per-VM run-phase durations (one sample per
	// VM simulation) — the tail here is what bounds the concurrent run
	// phase's wall clock. A VM stepped in a lockstep block records its
	// share of the block, the block's wall time over its VM count, so
	// the count stays the number of VMs and the sum stays worker busy
	// time.
	StepPhase obs.Summary
}

// StepsPerSecond is the control-plane throughput: fleet simulation
// steps per wall-clock second.
func (r *Result) StepsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalSteps) / r.Elapsed.Seconds()
}

// HitRate is the fleet-wide repository hit rate (all templates,
// weighted by lookup volume).
func (r *Result) HitRate() float64 {
	var hits, total int64
	for _, g := range r.Groups {
		hits += g.RepoHits
		total += g.RepoHits + g.RepoMisses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// TotalCost is the fleet-wide provisioning bill in USD.
func (r *Result) TotalCost() float64 { return r.Bill.Total() }

// MeanSLOViolationFraction averages the per-VM violation fractions.
func (r *Result) MeanSLOViolationFraction() float64 {
	if len(r.VMResults) == 0 {
		return 0
	}
	sum := 0.0
	for _, vr := range r.VMResults {
		sum += vr.SLOViolationFraction
	}
	return sum / float64(len(r.VMResults))
}

// DefaultTuner builds the evaluation tuner for a service template:
// scale-out over large instances for Cassandra and RUBiS, scale-up
// over instance types for SPECweb — the paper's two case studies.
func DefaultTuner(svc services.Service) (core.Tuner, error) {
	switch s := svc.(type) {
	case *services.Cassandra:
		return core.NewScaleOutTuner(s, cloud.Large, s.MinInstances, s.MaxInstances)
	case *services.SPECWeb:
		return core.NewScaleUpTuner(s, s.Instances, []cloud.InstanceType{cloud.Large, cloud.XLarge})
	case *services.RUBiS:
		return core.NewScaleOutTuner(s, cloud.Large, 1, s.MaxInstances)
	default:
		return nil, fmt.Errorf("fleet: no default tuner for service %q", svc.Name())
	}
}

// activeTrace returns the slice of a VM's run trace covered by its
// membership window [JoinAt, LeaveAt), in whole trace samples. A VM
// without a window (both zero) runs its full trace; spot instances
// join late (JoinAt) and preempted ones leave early (LeaveAt), in
// fleet-absolute run time.
func activeTrace(spec sim.VMSpec) (*trace.Trace, error) {
	t := spec.RunTrace
	if spec.JoinAt == 0 && spec.LeaveAt == 0 {
		return t, nil
	}
	from := int(spec.JoinAt / t.Step)
	to := t.Len()
	if spec.LeaveAt > 0 {
		to = int(spec.LeaveAt / t.Step)
	}
	sub, err := t.Slice(from, to)
	if err != nil {
		return nil, fmt.Errorf("fleet: vm %s membership window [%v, %v): %w", spec.Name, spec.JoinAt, spec.LeaveAt, err)
	}
	return sub, nil
}

// group is one service template's shared state.
type group struct {
	service services.Service
	repo    *core.Repository
	source  core.DecisionSource // repo (in-process) or a remote template
	cache   *core.SharedTuningCache
	classes int
	vms     []int // indices into Config.Specs
}

// templateCtx is the worker-local per-template batch state: setup that
// is identical for every VM of a template and safe to reuse across the
// consecutive same-template VMs a worker steps through (the run phase
// iterates VMs in template-major order for exactly this reason).
// Everything in it is result-neutral, so batching only removes
// redundant setup work, never sharing that could couple VM outcomes.
type templateCtx struct {
	// proto is the template's default tuner, built once per
	// (worker, template) and copied per VM by struct copy — the copy
	// shares the immutable Candidates slice and privatizes the only
	// mutable field (the trial counter). nil when the default tuner is
	// not a linear search; those VMs build their own.
	proto *core.LinearSearchTuner
	// src is the worker's own source over the template's in-process
	// repository: lookups without a shared pool row or shared counter
	// adds, its tallies flushed once the workers have joined. nil for a
	// template served by a remote source.
	src *core.WorkerSource
}

// vmKit is everything a VM runs on: its noise stream, its profiler
// (whose monitor for the signature events is built once and kept), its
// tuner (a copy of the template's proto) behind its view of the shared
// tuning cache, its controller and its runner. A worker owns one kit
// per member of the widest unit it has run, whatever the template
// (runPhase.kits): a VM run straight through takes kit 0, and member k
// of a lockstep block kit k, since a block interleaves its VMs. The kit
// is re-initialized in place for each VM — ready, then each part's
// Reset, which its constructor also calls — to what a fresh kit would
// hold (TestVMKitReadyIsFresh, TestVMKitResetIsFresh), so reuse removes
// setup work and allocation, never couples VM outcomes. A VM whose
// service is not exactly its template's runs on a private kit.
type vmKit struct {
	rng    *rand.Rand
	prof   *core.Profiler
	tuner  core.LinearSearchTuner
	shared core.SharedTuner
	ctl    core.Controller
	run    sim.Runner
}

// ready readies the kit's stream, profiler and tuner for a VM of
// service svc: the noise stream restarts as rng.New(seed) would start
// it, a profiler built for another service is rebuilt, and the returned
// tuner is a fresh copy of proto, or a default tuner built for svc when
// proto is nil. An empty kit builds its parts here.
func (k *vmKit) ready(svc services.Service, seed int64, proto *core.LinearSearchTuner) (core.Tuner, error) {
	if k.rng == nil {
		k.rng = rng.New(seed)
	} else {
		rng.Reseed(k.rng, seed)
	}
	if k.prof == nil || k.prof.Service != svc {
		var err error
		if k.prof, err = core.NewProfiler(svc, k.rng); err != nil {
			return nil, err
		}
	}
	if proto == nil {
		return DefaultTuner(svc)
	}
	k.tuner = *proto
	return &k.tuner, nil
}

// workerTemplateCtx returns worker's shared context for the VM's
// template, building it on first use. Sharing is only legal when the
// VM's service value is exactly the template's (hand-built fleets may
// reuse a service name with divergent configs); ineligible VMs get nil
// and fall back to fully private setup. A generated fleet's VMs hold
// their template's one service value (sim.GenerateScenario), so the
// pointer test settles them; only hand-built fleets reach the deep
// comparison.
func workerTemplateCtx(wctx []map[string]*templateCtx, worker int, svc services.Service, g *group) *templateCtx {
	if svc != g.service && !reflect.DeepEqual(svc, g.service) {
		return nil
	}
	m := wctx[worker]
	if m == nil {
		m = make(map[string]*templateCtx, 4)
		wctx[worker] = m
	}
	name := g.service.Name()
	tc, ok := m[name]
	if !ok {
		tc = &templateCtx{}
		if g.source == nil {
			tc.src = core.NewWorkerSource(g.repo)
		}
		if t, err := DefaultTuner(g.service); err == nil {
			if lt, isLinear := t.(*core.LinearSearchTuner); isLinear {
				tc.proto = lt
			}
		}
		m[name] = tc
	}
	return tc
}

// Run executes the fleet: learn once per service template, then drive
// every VM's controller concurrently over the shared repositories.
func Run(cfg Config) (*Result, error) {
	learnStart := time.Now()
	groups, err := learnGroups(&cfg)
	if err != nil {
		return nil, err
	}

	// Remote mode: publish each template's learning result into the
	// daemon and route every runtime decision through the client
	// library. The install is part of the learning bill — it is the
	// fleet-wide "share what you learned" step.
	if cfg.Remote != nil {
		for _, g := range groups {
			name := g.service.Name()
			if _, err := cfg.Remote.Install(name, g.repo); err != nil {
				return nil, fmt.Errorf("fleet: installing template %s: %w", name, err)
			}
			src, err := cfg.Remote.Source(name, g.repo.EventsRef())
			if err != nil {
				return nil, fmt.Errorf("fleet: sourcing template %s: %w", name, err)
			}
			g.source = src
		}
	}
	learningTime := time.Since(learnStart)

	p, err := newRunPhase(cfg, groups)
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	p.run()
	if err := errors.Join(p.errs...); err != nil {
		return nil, err
	}
	res := p.res
	res.Bill = cloud.NewFleetBill(p.usage)
	var stepDur obs.Snapshot
	for w := range p.stepDur {
		stepDur.Merge(p.stepDur[w].Snapshot())
	}
	res.Elapsed = time.Since(runStart)
	res.LearningTime = learningTime
	res.StepPhase = stepDur.Summary()

	for _, vr := range res.VMResults {
		res.TotalSteps += vr.Steps
	}
	for _, g := range groups { // sorted by service name
		name := g.service.Name()
		gs := GroupStats{
			Service:     name,
			VMs:         len(g.vms),
			Classes:     g.classes,
			TunerHits:   g.cache.Hits(),
			TunerMisses: g.cache.Misses(),
		}
		if cfg.Remote != nil {
			// The daemon owns the serving counters in remote mode.
			st, err := cfg.Remote.Stats(name)
			if err != nil {
				return nil, fmt.Errorf("fleet: stats for template %s: %w", name, err)
			}
			gs.RepoHits, gs.RepoMisses = st.Hits, st.Misses
			gs.RepoHitRate = st.HitRate
			gs.RepoEntries = st.Entries
		} else {
			hits, misses := g.repo.LookupCounts()
			gs.RepoHits, gs.RepoMisses = hits, misses
			gs.RepoHitRate = g.repo.HitRate()
			gs.RepoEntries = g.repo.Len()
		}
		res.Groups = append(res.Groups, gs)
	}
	return res, nil
}

// learnGroups validates cfg and fills its defaults, groups the VMs by
// service template — each group shares one repository and one tuning
// cache — and runs the learning phase: one clustering + tuning pass per
// template (the fleet-wide amortization: N VMs, one learning bill).
// Groups learn in parallel on the shared pool, each using its first
// VM's learning-day trace; the per-group clustering fan-out gets an
// even share of the workers so templates × restarts × candidate-k
// together stay bounded by cfg.Workers. The groups come back sorted by
// service name.
func learnGroups(cfg *Config) ([]*group, error) {
	if len(cfg.Specs) == 0 {
		return nil, errors.New("fleet: no VMs")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	byName := make(map[string]*group)
	var groups []*group
	for i, spec := range cfg.Specs {
		if spec.Service == nil || spec.RunTrace == nil {
			return nil, fmt.Errorf("fleet: vm %d (%s) needs Service and RunTrace", i, spec.Name)
		}
		if spec.RunTrace.Step <= 0 {
			return nil, fmt.Errorf("fleet: vm %d (%s): run trace step %v must be positive", i, spec.Name, spec.RunTrace.Step)
		}
		if step := spec.RunTrace.Step; spec.JoinAt%step != 0 || spec.LeaveAt%step != 0 {
			// activeTrace cuts whole samples; vmConfig shifts by JoinAt.
			return nil, fmt.Errorf("fleet: vm %d (%s): membership window [%v, %v) is off its run trace's %v grid", i, spec.Name, spec.JoinAt, spec.LeaveAt, step)
		}
		if spec.MixFn != nil && len(spec.MixShifts) == 0 {
			return nil, fmt.Errorf("fleet: vm %d (%s) sets the deprecated MixFn, which the fleet does not run; give it MixShifts", i, spec.Name)
		}
		name := spec.Service.Name()
		g, ok := byName[name]
		if !ok {
			g = &group{service: spec.Service, cache: core.NewSharedTuningCache()}
			byName[name] = g
			groups = append(groups, g)
		}
		g.vms = append(g.vms, i)
	}
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].service.Name() < groups[j].service.Name()
	})
	innerWorkers := cfg.Workers / len(groups)
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	learnErrs := make([]error, len(groups))
	parallel.Do(cfg.Workers, len(groups), func(i int) {
		learnErrs[i] = learnGroup(*cfg, groups[i], innerWorkers)
	})
	return groups, errors.Join(learnErrs...)
}

// runPhase is the run phase: a worker pool drains the VM queue. Only
// the repository's entries (one immutable copy-on-put map) and the
// tuning cache (mutex) are shared between VMs. A VM runs on a kit —
// stream, profiler, tuner, controller and runner — that its worker
// owns and resets for it in place (vmKit), so it shares no state with
// the VM before it and allocates little more than its Result.
// Everything else here is read-only during the phase, or indexed by VM
// (res.VMResults, usage, errs) or by worker (arena shards, wctx with
// its lookup tallies, kits, stepDur), so an in-process worker writes
// shared memory only through the repository's Put and the tuning
// cache. run flushes the tallies once the workers have joined;
// Run builds the bill and merges the histograms.
type runPhase struct {
	cfg     Config // Workers clipped to the fleet size
	groups  map[string]*group
	active  []*trace.Trace // per VM: its membership window of the run trace
	arena   *stepArena
	wctx    []map[string]*templateCtx
	kits    [][]vmKit // per worker: see vmKit
	res     *Result
	usage   []cloud.TenantUsage // per VM: its bill, in spec order
	errs    []error
	stepDur []obs.Histogram // per worker: its VMs' run durations

	// order is the fleet template-major: workers claim consecutive
	// units, so sorting by service name (stably — spec order preserved
	// within a template) makes each worker step through runs of
	// same-template VMs and amortize per-template setup through its
	// templateCtx. Per-VM results are interleaving-invariant (the
	// equivalence tests pin Workers=1 vs N byte-identical), so the
	// permutation changes scheduling only, never output.
	order []int
	// blocks are the boundaries in order of the units workers claim
	// (see lockstepBlocks); nil means every VM is its own unit.
	blocks []int
}

// newRunPhase lays the run phase out over learned (and, in remote
// mode, sourced) groups.
func newRunPhase(cfg Config, groups []*group) (*runPhase, error) {
	if cfg.Workers > len(cfg.Specs) {
		cfg.Workers = len(cfg.Specs)
	}
	p := &runPhase{
		cfg:     cfg,
		groups:  make(map[string]*group, len(groups)),
		active:  make([]*trace.Trace, len(cfg.Specs)),
		wctx:    make([]map[string]*templateCtx, cfg.Workers),
		kits:    make([][]vmKit, cfg.Workers),
		res:     &Result{VMResults: make([]*sim.Result, len(cfg.Specs))},
		usage:   make([]cloud.TenantUsage, len(cfg.Specs)),
		errs:    make([]error, len(cfg.Specs)),
		stepDur: make([]obs.Histogram, cfg.Workers),
		order:   make([]int, len(cfg.Specs)),
	}

	// Zero-copy step arena: each VM's step count is known up front
	// from its active trace window, so the arena pre-sizes an even
	// per-worker share of the whole fleet. Each worker fills slots
	// from its own shard, so the hot loop never contends on a global
	// bump pointer; VMs that leave mid-run drain their slot without
	// the arena ever compacting or reusing it (see stepArena), so
	// records held by live VMs and by the aggregation stay valid under
	// churn. Discarding runs skip the arena entirely.
	total := 0
	for i, spec := range cfg.Specs {
		at, err := activeTrace(spec)
		if err != nil {
			return nil, err
		}
		p.active[i] = at
		total += sim.Steps(at.Duration(), step)
		p.order[i] = i
	}
	if cfg.DiscardRecords {
		// No records, no slabs: an eager arena at 100k VMs would
		// allocate the >10 GB of record memory DiscardRecords exists
		// to avoid.
		total = 0
	}
	p.arena = newStepArena(total, cfg.Workers)
	sort.SliceStable(p.order, func(a, b int) bool {
		return cfg.Specs[p.order[a]].Service.Name() < cfg.Specs[p.order[b]].Service.Name()
	})

	for _, g := range groups {
		p.groups[g.service.Name()] = g
	}
	p.blocks = lockstepBlocks(cfg.Specs, p.order, p.groups, cfg.Workers)
	return p, nil
}

// run drains the units over the worker pool, per-VM failures landing
// in errs, and then flushes every worker's lookup tallies into the
// repositories' counters.
func (p *runPhase) run() {
	units := len(p.order)
	if p.blocks != nil {
		units = len(p.blocks) - 1
	}
	parallel.DoWorkers(p.cfg.Workers, units, func(worker, u int) {
		lo, hi := u, u+1
		if p.blocks != nil {
			lo, hi = p.blocks[u], p.blocks[u+1]
		}
		p.unit(worker, p.order[lo:hi])
	})
	for _, m := range p.wctx {
		for _, tc := range m {
			if tc.src != nil {
				tc.src.Flush()
			}
		}
	}
}

// unit runs one claimed unit of work on worker: a single VM straight
// through its group's source on its kit's runner, or several
// same-template VMs as one lockstep block.
func (p *runPhase) unit(worker int, members []int) {
	start := time.Now()
	if len(members) == 1 {
		i := members[0]
		simCfg, run, err := p.vmConfig(worker, i, nil, 0, 1)
		var vr *sim.Result
		if err == nil {
			vr, err = run.Run(simCfg)
		}
		p.finish(i, vr, err)
	} else {
		p.lockstep(worker, members)
	}
	share := time.Since(start) / time.Duration(len(members))
	for range members {
		p.stepDur[worker].Record(share)
	}
}

// finish books VM i's outcome: its error, or its result and its bill
// in slot i.
func (p *runPhase) finish(i int, vr *sim.Result, err error) {
	spec := &p.cfg.Specs[i]
	if err != nil {
		p.errs[i] = fmt.Errorf("fleet: vm %d (%s): %w", i, spec.Name, err)
		return
	}
	p.res.VMResults[i] = vr
	p.usage[i] = cloud.TenantUsage{
		Tenant:        spec.Name,
		Service:       spec.Service.Name(),
		Cost:          vr.TotalCost,
		InstanceHours: vr.MeanAllocatedInstances() * p.active[i].Duration().Hours(),
		Duration:      p.active[i].Duration(),
	}
}

// learnGroup runs (or skips) the learning phase for one template.
// workers bounds the group's clustering fan-out inside core.Learn.
func learnGroup(cfg Config, g *group, workers int) error {
	if repo, ok := cfg.SkipLearning[g.service.Name()]; ok && repo != nil {
		g.repo = repo
		g.classes = repo.Classes()
		return nil
	}
	first := cfg.Specs[g.vms[0]]
	if first.LearnTrace == nil {
		return fmt.Errorf("fleet: service %s needs a LearnTrace on its first VM", g.service.Name())
	}
	r := rng.New(first.Seed) // a group-private stream; sharing one would race
	prof, err := core.NewProfiler(g.service, r)
	if err != nil {
		return fmt.Errorf("fleet: service %s: %w", g.service.Name(), err)
	}
	tuner, err := DefaultTuner(g.service)
	if err != nil {
		return err
	}
	// Learning tunes through the shared cache too, so the runtime
	// misses of every VM can reuse the learning-phase sweeps.
	shared, err := core.NewSharedTuner(g.cache, g.service, tuner)
	if err != nil {
		return err
	}
	repo, report, err := core.Learn(core.LearnConfig{
		Profiler:  prof,
		Tuner:     shared,
		Workloads: core.WorkloadsFromTrace(first.LearnTrace, first.Mix),
		Rng:       r,
		Workers:   workers,
	})
	if err != nil {
		return fmt.Errorf("fleet: learning %s: %w", g.service.Name(), err)
	}
	g.repo = repo
	g.classes = report.Classes
	return nil
}

// vmConfig lays VM i out on worker: its step-record slot, its kit and
// its controller, which decides through src — or, when src is nil, its
// group's source or, for an in-process template, the worker source of
// the worker's templateCtx (a private kit's VM decides through the
// repository itself). The kit is the worker's k-th, for member k of an
// n-VM unit (see vmKit); a VM whose service is not exactly its
// template's builds a private one. It returns the VM's run config and
// the kit's runner to run it on (Runner.Run straight through, or
// Runner.Reset and Advance in a block). When the VM joined mid-run its
// time-indexed schedules (interference, mix) are shifted so they keep
// reading fleet-absolute time.
func (p *runPhase) vmConfig(worker, i int, src core.DecisionSource, k, n int) (sim.Config, *sim.Runner, error) {
	cfg, spec := p.cfg, &p.cfg.Specs[i]
	g := p.groups[spec.Service.Name()]
	var records []sim.StepRecord
	if !cfg.DiscardRecords {
		records = p.arena.acquire(worker, sim.Steps(p.active[i].Duration(), step))
	}
	tc := workerTemplateCtx(p.wctx, worker, spec.Service, g)
	var kit *vmKit
	svc := spec.Service
	if tc == nil {
		tc, kit = new(templateCtx), new(vmKit)
	} else {
		if have := len(p.kits[worker]); have < n {
			// All n in one growth, before the first member's address is
			// taken: a kit is too large to copy up append's doubling
			// ladder.
			p.kits[worker] = append(p.kits[worker], make([]vmKit, n-have)...)
		}
		// The template's own service value: its VMs' are equal to it,
		// and the kit keeps its profiler while the template holds.
		kit, svc = &p.kits[worker][k], g.service
	}
	inner, err := kit.ready(svc, spec.Seed, tc.proto)
	if err != nil {
		return sim.Config{}, nil, err
	}
	if err := kit.shared.Reset(g.cache, spec.Service, inner); err != nil {
		return sim.Config{}, nil, err
	}
	ctlCfg := core.ControllerConfig{
		Profiler:              kit.prof,
		Tuner:                 &kit.shared,
		Service:               spec.Service,
		InterferenceDetection: cfg.InterferenceDetection,
		OnDemandProfiling:     cfg.OnDemandProfiling,
	}
	if src == nil {
		src = g.source
	}
	if src == nil && tc.src != nil {
		src = tc.src
	}
	if src != nil {
		ctlCfg.Source = src
	} else {
		ctlCfg.Repository = g.repo
	}
	if err := kit.ctl.Reset(ctlCfg); err != nil {
		return sim.Config{}, nil, err
	}
	interference := spec.Interference
	shifts := spec.MixShifts // shared with the spec unless the VM joined mid-run
	if off := spec.JoinAt; off > 0 {
		if inner := interference; inner != nil {
			interference = func(now time.Duration) float64 { return inner(now + off) }
		}
		if len(shifts) > 0 {
			shifts = make([]sim.MixShift, len(spec.MixShifts))
			for i, s := range spec.MixShifts {
				shifts[i] = sim.MixShift{At: s.At - off, Mix: s.Mix}
			}
		}
	}
	return sim.Config{
		Service:        spec.Service,
		Trace:          p.active[i],
		Mix:            spec.Mix,
		MixShifts:      shifts,
		Controller:     &kit.ctl,
		Step:           step,
		Initial:        spec.Service.MaxAllocation(),
		Interference:   interference,
		Records:        records,
		DiscardRecords: cfg.DiscardRecords,
	}, &kit.run, nil
}
