package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/sim"
)

// Deployment shapes of the fleet workloads.
const (
	shapeLocal  = "fleet_local"
	shapeRemote = "fleet_remote"
	shapeTier   = "fleet_tier"
)

// scenario generates the benchmark fleet: heterogeneous templates, one
// run day at a 1-minute step (1440 steps and 24 profiling rounds per
// VM), every VM flipping its request mix once mid-stream, so roughly a
// tenth of the lookups are unforeseen and the tune + Put/Get write
// path runs beside the reads. The generator is prefix-invariant: the
// smaller fleets are prefixes of the larger.
func scenario(seed int64, vms int) ([]sim.VMSpec, error) {
	return sim.GenerateScenario(sim.ScenarioConfig{
		Rng:  rand.New(rand.NewSource(seed)),
		Kind: sim.KindWorkloadShift,
		VMs:  vms,
		Days: 1,
	})
}

// fleetRig is the decision plane a fleet pass drives: nothing
// (in-process), one dejavud, or the replicated tier behind the front.
type fleetRig struct {
	cl     *client.Client
	daemon *daemon
	tier   *tier
}

func standUpFleet(shape string, callers int) (*fleetRig, error) {
	r := &fleetRig{}
	var err error
	switch shape {
	case shapeLocal:
	case shapeRemote:
		if r.daemon, err = startDaemon(server.Config{}); err != nil {
			return nil, err
		}
		// Binary payloads on the stream transport, coalescing off:
		// how `dejavu-sim -remote ADDR -remote-tcp ADDR` runs it.
		r.cl, err = client.New(client.Config{Addr: r.daemon.http.addr, TCPAddr: r.daemon.tcpAddr, MaxIdleConns: callers})
	case shapeTier:
		if r.tier, err = startTier(); err != nil {
			return nil, err
		}
		r.cl, err = r.tier.frontClient(callers)
	default:
		err = fmt.Errorf("unknown fleet shape %q", shape)
	}
	if err != nil {
		_ = r.close() // already failing
		return nil, err
	}
	return r, nil
}

// daemons lists every dejavud of the rig.
func (r *fleetRig) daemons() []*daemon {
	if r.daemon != nil {
		return []*daemon{r.daemon}
	}
	if r.tier != nil {
		return r.tier.members
	}
	return nil
}

func (r *fleetRig) close() error {
	var err error
	if r.cl != nil {
		r.cl.Close()
	}
	if r.daemon != nil {
		err = r.daemon.close()
	}
	if r.tier != nil {
		if terr := r.tier.close(); err == nil {
			err = terr
		}
	}
	return err
}

// vmAgg is the per-VM output a deployment shape must not change.
type vmAgg struct {
	steps int
	slo   float64
	cost  float64
}

// fleetDigest is what the correctness checks compare between runs.
type fleetDigest struct {
	vms          []vmAgg
	steps        int
	hits, misses int64
	stepsPerS    float64
}

func digestFleet(res *fleet.Result) fleetDigest {
	d := fleetDigest{vms: make([]vmAgg, len(res.VMResults)), steps: res.TotalSteps, stepsPerS: res.StepsPerSecond()}
	for i, vr := range res.VMResults {
		d.vms[i] = vmAgg{steps: vr.Steps, slo: vr.SLOViolationFraction, cost: vr.TotalCost}
	}
	for _, g := range res.Groups {
		d.hits += g.RepoHits
		d.misses += g.RepoMisses
	}
	return d
}

// equal requires bit-equal per-VM aggregates and equal integer
// hit/miss counts (check a).
func (d fleetDigest) equal(o fleetDigest) error {
	if len(d.vms) != len(o.vms) {
		return fmt.Errorf("%d VMs vs %d", len(d.vms), len(o.vms))
	}
	for i := range d.vms {
		if d.vms[i] != o.vms[i] {
			return fmt.Errorf("vm %d: steps/slo/cost %v vs %v", i, d.vms[i], o.vms[i])
		}
	}
	if d.hits != o.hits || d.misses != o.misses {
		return fmt.Errorf("hits/misses %d/%d vs %d/%d", d.hits, d.misses, o.hits, o.misses)
	}
	return nil
}

// costUSD sums the fleet bill per VM in spec order (check c).
// Result.TotalCost ranges over a map, so its last bits differ from run
// to run; this sum does not.
func (d fleetDigest) costUSD() float64 {
	sum := 0.0
	for _, v := range d.vms {
		sum += v.cost
	}
	return sum
}

func (d fleetDigest) meanSLO() float64 {
	sum := 0.0
	for _, v := range d.vms {
		sum += v.slo
	}
	return sum / float64(len(d.vms))
}

func runFleetLocal(e *env) error  { return runFleet(e, shapeLocal, e.size.LocalVMs) }
func runFleetRemote(e *env) error { return runFleet(e, shapeRemote, e.size.RemoteVMs) }
func runFleetTier(e *env) error   { return runFleet(e, shapeTier, e.size.TierVMs) }

// runFleet drives one fleet workload: a reference in-process run of
// the same specs, then the passes, each a fresh scenario + decision
// plane + learn + install (set-up) around fleet.Run's run phase (the
// timed window).
func runFleet(e *env, shape string, vms int) error {
	// The reference is verification, not set-up the system needs, so it
	// stays out of setup_s.
	specs, err := scenario(e.seed, vms)
	if err != nil {
		return err
	}
	refRes, err := fleet.Run(fleet.Config{Specs: specs, Workers: e.callers, DiscardRecords: true})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	ref := digestFleet(refRes)
	if want, ok := e.expect.fleet(shape, vms); ok {
		if err := e.check(ref.steps == want.Steps && ref.hits == want.Hits && ref.misses == want.Misses,
			"(b) seed %d, %d VMs: steps/hits/misses %d/%d/%d equal the recorded %d/%d/%d",
			e.seed, vms, ref.steps, ref.hits, ref.misses, want.Steps, want.Hits, want.Misses); err != nil {
			return err
		}
	}

	err = e.runPasses(shape, func(warm bool) (time.Duration, time.Duration, error) {
		return e.fleetPass(shape, vms, ref, warm)
	})
	if err != nil {
		return err
	}
	e.passed("(a) every pass matched the in-process run per VM: steps, SLO fraction, cost bit-equal; hits/misses %d/%d", ref.hits, ref.misses)
	e.rec.set("fleet.hit_rate", float64(ref.hits)/float64(ref.hits+ref.misses))
	e.rec.set("fleet.slo_violation_frac", ref.meanSLO())
	e.rec.set("fleet.cost_usd", ref.costUSD())
	// The taxes are derived and informational — deliberately not
	// end-to-end, or a faster engine would read as a regression. Their
	// base is the in-process run of the same specs.
	switch shape {
	case shapeRemote:
		e.rec.set("fleet.remote_tax", ref.stepsPerS/e.rec.median("ops_per_s"))
	case shapeTier:
		e.rec.set("fleet.tier_tax", ref.stepsPerS/e.rec.median("ops_per_s"))
	}
	if e.spans != nil {
		return e.traceFleet(shape)
	}
	return nil
}

// fleetPass is one pass: generate the scenario and stand the decision
// plane up (set-up), fleet.Run — whose learn + install phase is set-up
// and whose run phase is the timed window — and tear down (set-up).
func (e *env) fleetPass(shape string, vms int, ref fleetDigest, warm bool) (setup, window time.Duration, err error) {
	start := time.Now()
	specs, err := scenario(e.seed, vms)
	if err != nil {
		return 0, 0, err
	}
	rig, err := standUpFleet(shape, e.callers)
	if err != nil {
		return 0, 0, err
	}
	setup = time.Since(start)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := fleet.Run(fleet.Config{Specs: specs, Workers: e.callers, DiscardRecords: true, Remote: rig.cl})
	runtime.ReadMemStats(&after)
	if err != nil {
		_ = rig.close() // the run error is the one to report
		return 0, 0, err
	}
	setup += res.LearningTime

	got := digestFleet(res)
	e.attempted += int64(len(specs))
	var cs client.LocalStats
	if rig.cl != nil {
		cs = rig.cl.StatsSnapshot()
		e.attempted += cs.Decides
	}
	var lookups, puts, gets, bad, refused int64
	for _, d := range rig.daemons() {
		st := d.srv.StatsSnapshot()
		lookups += st.LookupReqs
		puts += st.PutReqs
		gets += st.GetReqs
		bad += st.BadRequests
		refused += d.tcp.Stats().Refused
	}
	e.failed += bad + refused

	if !warm {
		e.rec.add("ops_per_s", got.stepsPerS)
		e.rec.add("fleet.steps_per_s", got.stepsPerS)
		e.rec.add("fleet.learn_ms", res.LearningTime.Seconds()*1e3)
		e.rec.add("fleet.vm_run_p50_us", res.StepPhase.P50US)
		e.rec.add("fleet.vm_run_p99_us", res.StepPhase.P99US)
		e.rec.add("fleet.allocs_per_vm", float64(after.Mallocs-before.Mallocs)/float64(vms))
		e.rec.add("fleet.alloc_bytes_per_vm", float64(after.TotalAlloc-before.TotalAlloc)/float64(vms))
		var tunerHits, tunerMisses int
		for _, g := range res.Groups {
			tunerHits += g.TunerHits
			tunerMisses += g.TunerMisses
		}
		if n := tunerHits + tunerMisses; n > 0 {
			e.rec.add("core.tuning_cache_hit_ratio", float64(tunerHits)/float64(n))
		}
		if rig.cl != nil {
			e.rec.add("client.decides", float64(cs.Decides))
			e.rec.add("client.retries", float64(cs.Retries))
			e.rec.add("client.request_p99_us", cs.Request.P99US)
			e.rec.add("server.lookup_requests", float64(lookups))
			e.rec.add("server.put_requests", float64(puts))
			e.rec.add("server.get_requests", float64(gets))
			e.rec.add("server.bad_requests", float64(bad))
			e.rec.add("server.tcp_refused", float64(refused))
		}
		if rig.tier != nil {
			e.rec.add("replica.failovers", float64(rig.tier.reg.Failovers()))
			e.rec.add("proxy.front_decide_p50_us", rig.tier.front.DecideLatency().Summary().P50US)
		}
	}
	start = time.Now()
	if err := rig.close(); err != nil {
		return 0, 0, err
	}
	setup += time.Since(start)
	if err := got.equal(ref); err != nil {
		return 0, 0, fmt.Errorf("check failed: (a) %s differs from the in-process run of the same specs: %w", shape, err)
	}
	return setup, res.Elapsed, nil
}
