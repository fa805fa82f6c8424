package sim_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
)

// vmKit is one service template ready to run a VM-day under a DejaVu
// controller: the generator's traces, host interference schedule and
// mix pair, plus a learned repository kept serialized so every run
// starts from an identical, private copy.
type vmKit struct {
	spec sim.VMSpec
	alt  services.Mix
	repo []byte
}

// newVMKits builds one kit per service template from the workload-shift
// generator (VMs 0, 1 and 3 of a heterogeneous fleet are cassandra,
// specweb and rubis). Learning sees both mixes, so a shift lands on a
// known class as often as on an unforeseen one.
func newVMKits(tb testing.TB) []*vmKit {
	tb.Helper()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng: rand.New(rand.NewSource(42)), Kind: sim.KindWorkloadShift, VMs: 4, Interference: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var kits []*vmKit
	for _, i := range []int{0, 1, 3} {
		k := &vmKit{spec: specs[i], alt: specs[i].MixShifts[0].Mix}
		prof, tuner := k.profilerAndTuner(tb)
		repo, _, err := core.Learn(core.LearnConfig{
			Profiler: prof,
			Tuner:    tuner,
			Workloads: append(core.WorkloadsFromTrace(k.spec.LearnTrace, k.spec.Mix),
				core.WorkloadsFromTrace(k.spec.LearnTrace, k.alt)...),
			Rng: rng.New(k.spec.Seed),
		})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := repo.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		k.repo = buf.Bytes()
		kits = append(kits, k)
	}
	return kits
}

// profilerAndTuner returns a fresh profiler and tuner on the kit's seed.
func (k *vmKit) profilerAndTuner(tb testing.TB) (*core.Profiler, core.Tuner) {
	tb.Helper()
	prof, err := core.NewProfiler(k.spec.Service, rng.New(k.spec.Seed))
	if err != nil {
		tb.Fatal(err)
	}
	tuner, err := fleet.DefaultTuner(k.spec.Service)
	if err != nil {
		tb.Fatal(err)
	}
	return prof, tuner
}

// controller returns a fresh DejaVu controller over a private copy of
// the learned repository, with every reaction it has switched on.
func (k *vmKit) controller(tb testing.TB) *core.Controller {
	tb.Helper()
	repo, err := core.LoadRepository(bytes.NewReader(k.repo))
	if err != nil {
		tb.Fatal(err)
	}
	prof, tuner := k.profilerAndTuner(tb)
	ctl, err := core.NewController(core.ControllerConfig{
		Repository: repo, Profiler: prof, Tuner: tuner, Service: k.spec.Service,
		InterferenceDetection: true, OnDemandProfiling: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ctl
}

// config is the kit's VM-day under ctl, mix schedule left to the caller.
func (k *vmKit) config(ctl sim.Controller) sim.Config {
	return sim.Config{
		Service:      k.spec.Service,
		Trace:        k.spec.RunTrace,
		Mix:          k.spec.Mix,
		Controller:   ctl,
		Initial:      k.spec.Service.MaxAllocation(),
		Interference: k.spec.Interference,
	}
}

// randomShifts draws schedule number seed: 0–5 shifts between the two
// mixes at second-granular offsets from an hour before the window to
// two hours past it, with the edge cases forced in turn — a shift at
// exactly 0, one past the end, and two inside one step.
func (k *vmKit) randomShifts(seed int64) []sim.MixShift {
	r := rand.New(rand.NewSource(seed))
	mixes := [2]services.Mix{k.spec.Mix, k.alt}
	shifts := make([]sim.MixShift, r.Intn(6))
	for i := range shifts {
		at := time.Duration(r.Intn(27*3600)-3600) * time.Second
		shifts[i] = sim.MixShift{At: at, Mix: mixes[r.Intn(2)]}
	}
	switch seed % 4 {
	case 1:
		shifts = append(shifts, sim.MixShift{At: 0, Mix: k.alt})
	case 2:
		shifts = append(shifts, sim.MixShift{At: 30 * time.Hour, Mix: k.alt})
	case 3:
		step := time.Duration(1+r.Intn(1400)) * time.Minute
		shifts = append(shifts,
			sim.MixShift{At: step + 10*time.Second, Mix: k.alt},
			sim.MixShift{At: step + 40*time.Second, Mix: k.spec.Mix})
	}
	sort.SliceStable(shifts, func(a, b int) bool { return shifts[a].At < shifts[b].At })
	return shifts
}

// mixFnOf is the schedule as the deprecated per-step closure: the mix
// of the last shift due by now, else the base mix.
func mixFnOf(base services.Mix, shifts []sim.MixShift) func(time.Duration) services.Mix {
	return func(now time.Duration) services.Mix {
		m := base
		for _, s := range shifts {
			if s.At <= now {
				m = s.Mix
			}
		}
		return m
	}
}

// auditController wraps a controller with the two things the engine's
// carried-over snapshot relies on and one thing it must reproduce: the
// inner Step leaves *obs untouched; the snapshot in obs equals what a
// deployment queried afresh on every step reports; and, kept in log,
// what the controller saw is what the step record says.
type auditController struct {
	tb     testing.TB
	inner  sim.Controller
	shadow *cloud.Deployment
	mixAt  func(time.Duration) services.Mix
	log    []sim.Observation
}

func newAudit(tb testing.TB, inner sim.Controller, cfg sim.Config) *auditController {
	tb.Helper()
	shadow, err := cloud.NewDeployment(cfg.Initial)
	if err != nil {
		tb.Fatal(err)
	}
	return &auditController{tb: tb, inner: inner, shadow: shadow, mixAt: mixFnOf(cfg.Mix, cfg.MixShifts)}
}

func (a *auditController) Name() string { return a.inner.Name() }

func (a *auditController) Step(obs *sim.Observation) (sim.Action, error) {
	active, target, inTransition := a.shadow.Status(obs.Now)
	if obs.Allocation != active || obs.TargetAllocation != target || obs.InTransition != inTransition {
		a.tb.Errorf("%s at %v: obs snapshot (%v → %v, transition %v), a fresh query says (%v → %v, transition %v)",
			a.Name(), obs.Now, obs.Allocation, obs.TargetAllocation, obs.InTransition, active, target, inTransition)
	}
	if want := a.mixAt(obs.Now); obs.Workload.Mix != want {
		a.tb.Errorf("%s at %v: obs mix %q, schedule says %q", a.Name(), obs.Now, obs.Workload.Mix.Name, want.Name)
	}
	before := *obs
	a.log = append(a.log, before)
	act, err := a.inner.Step(obs)
	if *obs != before {
		a.tb.Errorf("%s at %v: Step modified the observation:\n before %+v\n after  %+v", a.Name(), obs.Now, before, *obs)
	}
	if err == nil && act.Target != nil && !act.Target.Equal(target) {
		err = a.shadow.Apply(obs.Now+act.DecisionTime, *act.Target)
	}
	return act, err
}

// checkLog holds the controller's view against the step records.
func (a *auditController) checkLog(records []sim.StepRecord) {
	a.tb.Helper()
	if len(a.log) != len(records) {
		a.tb.Fatalf("%s: %d observations for %d records", a.Name(), len(a.log), len(records))
	}
	for i, o := range a.log {
		rec := records[i]
		saw := sim.StepRecord{
			Now: o.Now, Clients: o.Workload.Clients,
			LatencyMs: o.Perf.LatencyMs, QoSPercent: o.Perf.QoSPercent, Utilization: o.Perf.Utilization,
			Alloc: sim.RefOf(o.Allocation), InTransition: o.InTransition, SLOViolated: o.SLOViolated,
			Interference: rec.Interference, // not part of the observation
		}
		if saw != rec {
			a.tb.Fatalf("%s step %d: controller saw %+v, record says %+v", a.Name(), i, saw, rec)
		}
	}
}

// TestRunMixShiftsEqualsMixFn: a declarative schedule and the
// equivalent closure — the fallback that re-reads the mix and
// re-verifies the operating point every step, so the oracle for
// carrying the point across steps — give bit-equal runs, over
// controllers that resize (transitions, stabilisation) with host
// interference on.
func TestRunMixShiftsEqualsMixFn(t *testing.T) {
	for _, k := range newVMKits(t) {
		k := k
		t.Run(k.spec.Service.Name(), func(t *testing.T) {
			resizes, transitions, fired := 0, 0, 0
			for seed := int64(0); seed < 200; seed++ {
				shifts := k.randomShifts(seed)

				declarative := k.config(k.controller(t))
				declarative.MixShifts = shifts
				got, err := sim.Run(declarative)
				if err != nil {
					t.Fatalf("schedule %d: %v", seed, err)
				}
				closure := k.config(k.controller(t))
				closure.MixFn = mixFnOf(k.spec.Mix, shifts)
				want, err := sim.Run(closure)
				if err != nil {
					t.Fatalf("schedule %d (MixFn): %v", seed, err)
				}

				if !reflect.DeepEqual(got.Records, want.Records) || !reflect.DeepEqual(got.Episodes, want.Episodes) ||
					got.TotalCost != want.TotalCost || got.SLOViolationFraction != want.SLOViolationFraction ||
					got.Decisions != want.Decisions || got.MeanAllocatedInstances() != want.MeanAllocatedInstances() {
					t.Fatalf("schedule %d %v: MixShifts and MixFn runs differ (cost %v vs %v, SLO %v vs %v, %d vs %d episodes)",
						seed, shifts, got.TotalCost, want.TotalCost, got.SLOViolationFraction, want.SLOViolationFraction,
						len(got.Episodes), len(want.Episodes))
				}
				resizes += got.Decisions
				for _, rec := range got.Records {
					if rec.InTransition {
						transitions++
					}
				}
				for _, s := range shifts {
					if s.At > 0 && s.At < k.spec.RunTrace.Duration() {
						fired++
					}
				}
			}
			if resizes == 0 || transitions == 0 || fired == 0 {
				t.Fatalf("the schedules exercised %d resizes, %d transition steps, %d mid-run shifts; want all > 0", resizes, transitions, fired)
			}
		})
	}
}

// TestRunObservationMatchesRecords: what a controller is shown on every
// step — allocation, target, transition flag, workload, performance —
// is what a deployment re-queried each step reports and what the step
// record holds, though the engine writes the snapshot part only when
// it moved.
func TestRunObservationMatchesRecords(t *testing.T) {
	for _, k := range newVMKits(t) {
		for seed := int64(0); seed < 20; seed++ {
			cfg := k.config(nil)
			cfg.MixShifts = k.randomShifts(seed)
			audit := newAudit(t, k.controller(t), cfg)
			cfg.Controller = audit
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s schedule %d: %v", k.spec.Service.Name(), seed, err)
			}
			if res.Decisions == 0 {
				t.Fatalf("%s schedule %d: the controller never resized", k.spec.Service.Name(), seed)
			}
			audit.checkLog(res.Records)
		}
	}
}

// TestControllersLeaveObservationUntouched: the read-only contract on
// Controller.Step, which the engine now depends on, holds for every
// controller in the tree.
func TestControllersLeaveObservationUntouched(t *testing.T) {
	k := newVMKits(t)[0] // cassandra: every baseline's case study
	svc := k.spec.Service.(*services.Cassandra)
	prof, tuner := k.profilerAndTuner(t)

	relearner, err := core.NewRelearner(k.controller(t), core.LearnConfig{Profiler: prof, Tuner: tuner, Rng: rng.New(k.spec.Seed)})
	if err != nil {
		t.Fatal(err)
	}
	relearner.MinWorkloads = 3 // so a round actually runs inside one day
	autopilot, err := baseline.LearnAutopilotSchedule(tuner, core.WorkloadsFromTrace(k.spec.LearnTrace, k.spec.Mix))
	if err != nil {
		t.Fatal(err)
	}
	rightscale, err := baseline.NewRightScale(cloud.Large, svc.MinInstances, svc.MaxInstances, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	retuner, err := baseline.NewRetuner(tuner)
	if err != nil {
		t.Fatal(err)
	}
	model, err := baseline.NewModelBased(cloud.Large, svc.MinInstances, svc.MaxInstances, svc.SLO())
	if err != nil {
		t.Fatal(err)
	}

	for _, ctl := range []sim.Controller{
		k.controller(t), relearner, baseline.NewFixedMax(svc), autopilot, rightscale, retuner, model,
	} {
		cfg := k.config(nil)
		cfg.MixShifts = k.spec.MixShifts
		audit := newAudit(t, ctl, cfg)
		cfg.Controller = audit
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		audit.checkLog(res.Records)
	}
}

// TestRunMixShiftsValidation: the schedule is checked at entry.
func TestRunMixShiftsValidation(t *testing.T) {
	k := newVMKits(t)[0]
	at := func(h int, m services.Mix) sim.MixShift {
		return sim.MixShift{At: time.Duration(h) * time.Hour, Mix: m}
	}
	for name, mutate := range map[string]func(*sim.Config){
		"both MixFn and MixShifts": func(c *sim.Config) {
			c.MixShifts = []sim.MixShift{at(1, k.alt)}
			c.MixFn = mixFnOf(k.spec.Mix, nil)
		},
		"unsorted":   func(c *sim.Config) { c.MixShifts = []sim.MixShift{at(2, k.alt), at(1, k.spec.Mix)} },
		"empty name": func(c *sim.Config) { c.MixShifts = []sim.MixShift{at(1, services.Mix{})} },
	} {
		cfg := k.config(baseline.NewFixedMax(k.spec.Service))
		mutate(&cfg)
		if _, err := sim.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
	}
	// Equal offsets are sorted; the later entry wins.
	cfg := k.config(baseline.NewFixedMax(k.spec.Service))
	cfg.MixShifts = []sim.MixShift{at(1, k.alt), at(1, k.spec.Mix)}
	if _, err := sim.Run(cfg); err != nil {
		t.Errorf("two shifts at one offset: %v", err)
	}
}

// TestRunStepLoopAllocs: the step loop itself allocates nothing — a
// discarding run costs the same allocations for an hour as for a day.
func TestRunStepLoopAllocs(t *testing.T) {
	k := newVMKits(t)[0]
	allocs := func(hours int) float64 {
		tr, err := k.spec.RunTrace.Slice(0, hours)
		if err != nil {
			t.Fatal(err)
		}
		cfg := k.config(baseline.NewFixedMax(k.spec.Service))
		cfg.Trace = tr
		cfg.MixShifts = []sim.MixShift{{At: 30 * time.Minute, Mix: k.alt}}
		cfg.DiscardRecords = true
		return testing.AllocsPerRun(20, func() {
			if _, err := sim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if hour, day := allocs(1), allocs(24); hour != day {
		t.Errorf("allocations grow with the step count: %v for 60 steps, %v for 1440", hour, day)
	}
}

// BenchmarkSimRun is one VM-day (1440 steps, 24 profiling rounds) under
// the DejaVu controller: a constant mix, the generator's one mid-day
// shift, and the shift with host interference on.
func BenchmarkSimRun(b *testing.B) {
	k := newVMKits(b)[0]
	for _, bc := range []struct {
		name         string
		shifts       []sim.MixShift
		interference func(time.Duration) float64
	}{
		{"constant", nil, nil},
		{"shift", k.spec.MixShifts, nil},
		{"interference", k.spec.MixShifts, k.spec.Interference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := k.config(nil)
			cfg.MixShifts, cfg.Interference, cfg.DiscardRecords = bc.shifts, bc.interference, true
			steps := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // a fresh controller and repository copy per VM-day
				cfg.Controller = k.controller(b)
				b.StartTimer()
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
