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
	return k.controllerWith(tb, true, true)
}

// controllerWith is controller with the two violation-driven reactions
// — interference detection and on-demand profiling — set as given;
// both off is what the fleet runs by default.
func (k *vmKit) controllerWith(tb testing.TB, detect, onDemand bool) *core.Controller {
	tb.Helper()
	repo, err := core.LoadRepository(bytes.NewReader(k.repo))
	if err != nil {
		tb.Fatal(err)
	}
	prof, tuner := k.profilerAndTuner(tb)
	ctl, err := core.NewController(core.ControllerConfig{
		Repository: repo, Profiler: prof, Tuner: tuner, Service: k.spec.Service,
		InterferenceDetection: detect, OnDemandProfiling: onDemand,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ctl
}

// everyController returns a fresh instance of every controller in the
// tree over the kit: DejaVu, a Relearner, and each baseline. The
// Relearner wraps a controller with both reactions off whose repository
// saw the learning day at a tenth of its volume, so the run's load goes
// unforeseen and rounds re-cluster through the day, as in the drift
// experiment. The baselines are cassandra case studies, so k must be
// the cassandra kit.
func (k *vmKit) everyController(tb testing.TB) []sim.Controller {
	tb.Helper()
	svc := k.spec.Service.(*services.Cassandra)
	prof, tuner := k.profilerAndTuner(tb)

	small := k.spec.LearnTrace.ScaleTo(0.1 * k.spec.LearnTrace.Peak())
	stale, _, err := core.Learn(core.LearnConfig{
		Profiler: prof, Tuner: tuner, Workloads: core.WorkloadsFromTrace(small, k.spec.Mix), Rng: rng.New(k.spec.Seed),
	})
	if err != nil {
		tb.Fatal(err)
	}
	inner, err := core.NewController(core.ControllerConfig{Repository: stale, Profiler: prof, Tuner: tuner, Service: svc})
	if err != nil {
		tb.Fatal(err)
	}
	relearner, err := core.NewRelearner(inner, core.LearnConfig{Profiler: prof, Tuner: tuner, Rng: rng.New(k.spec.Seed)})
	if err != nil {
		tb.Fatal(err)
	}
	relearner.MinWorkloads = 3 // so a round actually runs inside one day
	autopilot, err := baseline.LearnAutopilotSchedule(tuner, core.WorkloadsFromTrace(k.spec.LearnTrace, k.spec.Mix))
	if err != nil {
		tb.Fatal(err)
	}
	rightscale, err := baseline.NewRightScale(cloud.Large, svc.MinInstances, svc.MaxInstances, 15*time.Minute)
	if err != nil {
		tb.Fatal(err)
	}
	retuner, err := baseline.NewRetuner(tuner)
	if err != nil {
		tb.Fatal(err)
	}
	model, err := baseline.NewModelBased(cloud.Large, svc.MinInstances, svc.MaxInstances, svc.SLO())
	if err != nil {
		tb.Fatal(err)
	}
	return []sim.Controller{
		k.controller(tb), relearner, baseline.NewFixedMax(svc), autopilot, rightscale, retuner, model,
	}
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

// checkLog holds the controller's view against the step records: each
// logged observation against the record of its own step, since a
// controller that sleeps is not called on every step.
func (a *auditController) checkLog(records []sim.StepRecord) {
	a.tb.Helper()
	if len(a.log) == 0 || len(a.log) > len(records) {
		a.tb.Fatalf("%s: %d observations for %d records", a.Name(), len(a.log), len(records))
	}
	for _, o := range a.log {
		i := int(o.Now / time.Minute) // the kits run at the default step
		if i >= len(records) {
			a.tb.Fatalf("%s: observation at %v past the %d records", a.Name(), o.Now, len(records))
		}
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
// it moved. With host interference off, the run also spans the steps
// the controller sleeps through.
func TestRunObservationMatchesRecords(t *testing.T) {
	for _, k := range newVMKits(t) {
		for seed := int64(0); seed < 20; seed++ {
			for _, interference := range []func(time.Duration) float64{k.spec.Interference, nil} {
				cfg := k.config(nil)
				cfg.MixShifts = k.randomShifts(seed)
				cfg.Interference = interference
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
}

// TestControllersLeaveObservationUntouched: the read-only contract on
// Controller.Step, which the engine now depends on, holds for every
// controller in the tree, with host interference on and off.
func TestControllersLeaveObservationUntouched(t *testing.T) {
	k := newVMKits(t)[0] // cassandra: every baseline's case study
	for _, interference := range []func(time.Duration) float64{k.spec.Interference, nil} {
		for _, ctl := range k.everyController(t) {
			cfg := k.config(nil)
			cfg.MixShifts = k.spec.MixShifts
			cfg.Interference = interference
			audit := newAudit(t, ctl, cfg)
			cfg.Controller = audit
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", ctl.Name(), err)
			}
			audit.checkLog(res.Records)
		}
	}
}

// everyStep zeroes its controller's wake hint, so Run processes every
// step and calls the controller on each: the per-minute oracle for
// spans, driven through the same loop.
type everyStep struct{ sim.Controller }

func (e everyStep) Step(obs *sim.Observation) (sim.Action, error) {
	act, err := e.Controller.Step(obs)
	act.Wake, act.WakeOnViolation = 0, false
	return act, err
}

// counting counts the calls Run makes into its controller.
type counting struct {
	sim.Controller
	calls int
}

func (c *counting) Step(obs *sim.Observation) (sim.Action, error) {
	c.calls++
	return c.Controller.Step(obs)
}

// tallies is what a DejaVu controller counts besides the run's result.
func tallies(c *core.Controller) []any {
	return []any{c.AdaptationTimes(), c.UnforeseenCount(), c.TuningCount(), c.InterferenceEvents()}
}

// scripted asks at its first call for target with a 20-minute decision
// time, asks never to be woken, and logs when it is called anyway.
type scripted struct {
	target cloud.Allocation
	calls  []time.Duration
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Step(obs *sim.Observation) (sim.Action, error) {
	s.calls = append(s.calls, obs.Now)
	act := sim.Action{Wake: 1 << 62}
	if obs.Now == 0 {
		act.Target, act.DecisionTime = &s.target, 20*time.Minute
	}
	return act, nil
}

// TestRunWakesOnSnapshotMoves: a controller that sleeps past its own
// allocation change is still called on the step after the Apply and on
// the settle, and the transition in between is stepped as it would be
// every minute.
func TestRunWakesOnSnapshotMoves(t *testing.T) {
	k := newVMKits(t)[0]
	target := k.spec.Service.MaxAllocation()
	target.Count /= 2
	spanning, oracle := &scripted{target: target}, &scripted{target: target}
	cfg := k.config(spanning)
	cfg.Interference = nil
	got, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Controller = everyStep{oracle}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spanning and every-step runs differ")
	}
	// Ready at 20 min + the type's warm-up: settled on the next whole step.
	settle := (20*time.Minute + target.Type.WarmupDelay + time.Minute - 1) / time.Minute * time.Minute
	if wantCalls := []time.Duration{0, time.Minute, settle}; !reflect.DeepEqual(spanning.calls, wantCalls) {
		t.Fatalf("called at %v, want %v", spanning.calls, wantCalls)
	}
}

// TestRunWakeEqualsEveryStep: skipping the steps a controller sleeps
// through changes nothing. Against the run whose wake hints are zeroed,
// the spanning run gives a deeply equal Result, and the DejaVu
// controller equal tallies, over the three templates × 200 mix
// schedules, cycling through every combination of interference
// detection, on-demand profiling, host interference and records. The
// Relearner and every baseline are held to it too. So that it cannot
// pass vacuously, with both reactions and interference off fewer than
// 15 % of the steps call the controller.
func TestRunWakeEqualsEveryStep(t *testing.T) {
	kits := newVMKits(t)
	for _, k := range kits {
		k := k
		t.Run(k.spec.Service.Name(), func(t *testing.T) {
			calls, steps := 0, 0
			for seed := int64(0); seed < 200; seed++ {
				detect, onDemand := seed/4%2 == 1, seed/8%2 == 1
				cfg := k.config(nil)
				cfg.MixShifts = k.randomShifts(seed)
				if seed/16%2 == 1 {
					cfg.Interference = nil
				}
				cfg.DiscardRecords = seed/32%2 == 1

				spanning := &counting{Controller: k.controllerWith(t, detect, onDemand)}
				cfg.Controller = spanning
				got, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("schedule %d: %v", seed, err)
				}
				oracle := k.controllerWith(t, detect, onDemand)
				cfg.Controller = everyStep{oracle}
				want, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("schedule %d (every step): %v", seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("schedule %d (detect %v, on-demand %v, interference %v, discard %v): spanning and every-step runs differ (cost %v vs %v, SLO %v vs %v, %d vs %d steps)",
						seed, detect, onDemand, cfg.Interference != nil, cfg.DiscardRecords,
						got.TotalCost, want.TotalCost, got.SLOViolationFraction, want.SLOViolationFraction, got.Steps, want.Steps)
				}
				if a, b := tallies(spanning.Controller.(*core.Controller)), tallies(oracle); !reflect.DeepEqual(a, b) {
					t.Fatalf("schedule %d: controller tallies differ: %v vs %v", seed, a, b)
				}
				if cfg.Interference != nil && spanning.calls != got.Steps {
					t.Fatalf("schedule %d: an Interference closure must call the controller every step; %d calls for %d steps", seed, spanning.calls, got.Steps)
				}
				if !detect && !onDemand && cfg.Interference == nil {
					calls, steps = calls+spanning.calls, steps+got.Steps
				}
			}
			if steps == 0 || float64(calls) >= 0.15*float64(steps) {
				t.Fatalf("with both reactions and interference off the controller was called on %d of %d steps; want < 15 %%", calls, steps)
			}
			t.Logf("both reactions off, no interference: %d calls for %d steps (%.1f %%)", calls, steps, 100*float64(calls)/float64(steps))
		})
	}

	k := kits[0]
	for _, interference := range []func(time.Duration) float64{k.spec.Interference, nil} {
		spanning, oracles := k.everyController(t), k.everyController(t)
		for i, ctl := range spanning {
			cfg := k.config(ctl)
			cfg.MixShifts = k.spec.MixShifts
			cfg.Interference = interference
			got, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", ctl.Name(), err)
			}
			cfg.Controller = everyStep{oracles[i]}
			want, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s (every step): %v", ctl.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (interference %v): spanning and every-step runs differ", ctl.Name(), interference != nil)
			}
		}
		if a, b := tallies(spanning[0].(*core.Controller)), tallies(oracles[0].(*core.Controller)); !reflect.DeepEqual(a, b) {
			t.Fatalf("dejavu (interference %v): controller tallies differ: %v vs %v", interference != nil, a, b)
		}
		if a, b := spanning[1].(*core.Relearner), oracles[1].(*core.Relearner); a.Relearns() == 0 || a.Relearns() != b.Relearns() ||
			!reflect.DeepEqual(tallies(a.Controller), tallies(b.Controller)) {
			t.Fatalf("Relearner (interference %v): %d vs %d relearns, tallies %v vs %v",
				interference != nil, a.Relearns(), b.Relearns(), tallies(a.Controller), tallies(b.Controller))
		}
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

// BenchmarkSimRun is one VM-day (1440 steps, 24 profiling rounds) under
// the DejaVu controller: with both violation-driven reactions on, a
// constant mix, the generator's one mid-day shift, and the shift with
// host interference on; and fleet-default, the shift with both
// reactions and interference off, which is what the benchmark fleet
// runs. calls/day counts the engine's calls into the controller.
func BenchmarkSimRun(b *testing.B) {
	k := newVMKits(b)[0]
	for _, bc := range []struct {
		name         string
		shifts       []sim.MixShift
		interference func(time.Duration) float64
		reactions    bool
	}{
		{"constant", nil, nil, true},
		{"shift", k.spec.MixShifts, nil, true},
		{"interference", k.spec.MixShifts, k.spec.Interference, true},
		{"fleet-default", k.spec.MixShifts, nil, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := k.config(nil)
			cfg.MixShifts, cfg.Interference, cfg.DiscardRecords = bc.shifts, bc.interference, true
			steps, calls := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // a fresh controller and repository copy per VM-day
				ctl := &counting{Controller: k.controllerWith(b, bc.reactions, bc.reactions)}
				cfg.Controller = ctl
				b.StartTimer()
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps, calls = steps+res.Steps, calls+ctl.calls
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(calls)/float64(b.N), "calls/day")
		})
	}
}
