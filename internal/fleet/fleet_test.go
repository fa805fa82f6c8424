package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/sim"
)

// scenario builds a deterministic fleet scenario for tests.
func scenario(t *testing.T, vms int, homogeneous, interference bool) []sim.VMSpec {
	t.Helper()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:          rand.New(rand.NewSource(7)),
		VMs:          vms,
		Days:         1,
		Homogeneous:  homogeneous,
		Interference: interference,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != vms {
		t.Fatalf("got %d specs, want %d", len(specs), vms)
	}
	return specs
}

func TestFleetSingleVM(t *testing.T) {
	res, err := Run(Config{Specs: scenario(t, 1, true, false)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VMResults) != 1 || res.VMResults[0] == nil {
		t.Fatalf("missing VM result: %+v", res.VMResults)
	}
	if got := len(res.VMResults[0].Records); got != 24*60 {
		t.Errorf("1-day run has %d records, want %d", got, 24*60)
	}
	if res.TotalSteps != len(res.VMResults[0].Records) {
		t.Errorf("TotalSteps %d != records %d", res.TotalSteps, len(res.VMResults[0].Records))
	}
	if res.StepsPerSecond() <= 0 {
		t.Error("StepsPerSecond should be positive")
	}
	if len(res.Groups) != 1 || res.Groups[0].Service != "cassandra" {
		t.Fatalf("groups: %+v", res.Groups)
	}
	if res.Groups[0].RepoHitRate <= 0 {
		t.Error("a periodic-profiling run should produce repository hits")
	}
	if res.Bill.Total() <= 0 {
		t.Error("bill should be positive")
	}
}

// TestFleetSharedRepositoryAmortization is the déjà-vu effect at
// scale: a fleet sharing one repository per template should see a
// hit rate at least as high as a single VM, and pay for at most a few
// more tuning sweeps than one VM does — not N times as many.
func TestFleetSharedRepositoryAmortization(t *testing.T) {
	single, err := Run(Config{Specs: scenario(t, 1, true, false)})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Run(Config{Specs: scenario(t, 8, true, false), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fleet.HitRate(), single.HitRate(); got < want {
		t.Errorf("fleet hit rate %.3f below single-VM baseline %.3f", got, want)
	}
	g := fleet.Groups[0]
	if g.VMs != 8 {
		t.Fatalf("group VMs = %d, want 8", g.VMs)
	}
	// 8 VMs, one shared learning phase: misses in the shared tuning
	// cache (real sweeps) must stay far below 8x the single-VM count.
	// (Shared-tuner *hits* are not asserted: with a warm repository
	// the runtime never tunes, and reuse flows through repository
	// hits instead.)
	s := single.Groups[0]
	if g.TunerMisses > 2*s.TunerMisses {
		t.Errorf("fleet ran %d tuning sweeps, single VM %d: sharing is not amortizing",
			g.TunerMisses, s.TunerMisses)
	}
	// The fleet serves 8x the lookups from the one shared repository.
	if g.RepoHits < 8*s.RepoHits {
		t.Errorf("fleet repo hits %d, want at least 8x single-VM %d", g.RepoHits, s.RepoHits)
	}
}

func TestFleetHeterogeneous(t *testing.T) {
	res, err := Run(Config{Specs: scenario(t, 6, false, false), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 2 {
		t.Fatalf("heterogeneous fleet should span several templates: %+v", res.Groups)
	}
	vms := 0
	for _, g := range res.Groups {
		vms += g.VMs
		if g.Classes <= 0 {
			t.Errorf("group %s learned %d classes", g.Service, g.Classes)
		}
	}
	if vms != 6 {
		t.Errorf("groups cover %d VMs, want 6", vms)
	}
	if got := len(res.Bill.Tenants()); got != 6 {
		t.Errorf("bill covers %d tenants, want 6", got)
	}
	if got := len(res.Bill.ByService()); got != len(res.Groups) {
		t.Errorf("per-service rollup has %d rows, want %d", got, len(res.Groups))
	}
}

// TestFleetBillSharedTenantWorkersInvariance: when several VMs name
// one tenant, their costs accumulate in spec order, not in the order
// the VMs finish, so the bill is bit-equal at any worker count and on
// every run.
func TestFleetBillSharedTenantWorkersInvariance(t *testing.T) {
	specs := scenario(t, 12, false, false)
	const shared = 8
	for i := 0; i < shared; i++ {
		specs[i].Name = "shared-tenant"
	}
	type bill struct {
		tenants, byService []cloud.TenantUsage
		total              float64
	}
	var want *bill
	for _, workers := range []int{1, 4, 1, 4, 4} {
		res, err := Run(Config{Specs: specs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := &bill{res.Bill.Tenants(), res.Bill.ByService(), res.Bill.Total()}
		if want == nil {
			want = got
			costs := map[float64]bool{}
			for _, vr := range res.VMResults[:shared] {
				costs[vr.TotalCost] = true
			}
			if len(costs) < 4 {
				t.Fatalf("the shared tenant's VMs cost %d distinct amounts, want at least 4", len(costs))
			}
			if len(got.tenants) != len(specs)-shared+1 {
				t.Fatalf("bill has %d tenants, want %d", len(got.tenants), len(specs)-shared+1)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d: bill %+v, want the Workers=1 bill %+v", workers, got, want)
		}
	}
}

// TestFleetInterference runs consolidated VMs with correlated host
// interference and the detection loop on; controllers must keep
// running and populate nonzero interference buckets.
func TestFleetInterference(t *testing.T) {
	res, err := Run(Config{
		Specs:                 scenario(t, 4, true, true),
		Workers:               2,
		InterferenceDetection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	if g.RepoEntries <= g.Classes {
		t.Errorf("interference should add buckets beyond the %d learned classes, repo has %d entries",
			g.Classes, g.RepoEntries)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty fleet should error")
	}
	if _, err := Run(Config{Specs: []sim.VMSpec{{Name: "x"}}}); err == nil {
		t.Error("spec without service/trace should error")
	}
	closureOnly := scenario(t, 1, true, false)
	closureOnly[0].MixFn = func(time.Duration) services.Mix { return closureOnly[0].Mix }
	if _, err := Run(Config{Specs: closureOnly}); err == nil {
		t.Error("a MixFn without MixShifts would be silently ignored; it should error")
	}
	// A mid-run joiner's window is cut in whole trace samples, so a
	// trace step ≤ 0 must be refused before anything divides by it.
	for _, step := range []time.Duration{0, -time.Minute} {
		joiner := scenario(t, 1, true, false)
		tr := *joiner[0].RunTrace
		tr.Step = step
		joiner[0].RunTrace, joiner[0].JoinAt = &tr, time.Hour
		if _, err := Run(Config{Specs: joiner}); err == nil || !strings.Contains(err.Error(), step.String()) {
			t.Errorf("run trace step %v: got %v, want an error naming the step", step, err)
		}
	}
	// The window is cut in whole trace samples: one off the trace's
	// hourly grid would step the VM from the sample before JoinAt while
	// its schedules read as of JoinAt. It is refused, naming the VM and
	// the window; an on-grid window runs.
	for _, c := range []struct {
		join, leave time.Duration
		ok          bool
	}{
		{join: 90 * time.Minute},
		{leave: 20*time.Hour + 30*time.Minute},
		{join: 90 * time.Minute, leave: 20*time.Hour + 30*time.Minute},
		{join: 2 * time.Hour, leave: 20 * time.Hour, ok: true},
	} {
		specs := scenario(t, 1, true, false)
		specs[0].JoinAt, specs[0].LeaveAt = c.join, c.leave
		res, err := Run(Config{Specs: specs})
		window := fmt.Sprintf("[%v, %v)", c.join, c.leave)
		switch {
		case c.ok && err != nil:
			t.Errorf("window %s: %v", window, err)
		case c.ok && res.VMResults[0].Steps != 18*60:
			t.Errorf("window %s: %d steps, want %d", window, res.VMResults[0].Steps, 18*60)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), specs[0].Name) || !strings.Contains(err.Error(), window)):
			t.Errorf("window %s: got %v, want an error naming the VM and the window", window, err)
		}
	}
}

func TestDefaultTuner(t *testing.T) {
	for _, svc := range []services.Service{
		services.NewCassandra(), services.NewSPECWeb(), services.NewRUBiS(),
	} {
		tuner, err := DefaultTuner(svc)
		if err != nil {
			t.Errorf("%s: %v", svc.Name(), err)
			continue
		}
		if tuner.Duration() <= 0 {
			t.Errorf("%s: tuner duration %v", svc.Name(), tuner.Duration())
		}
	}
	if _, err := DefaultTuner(fakeService{}); err == nil {
		t.Error("unknown service should error")
	}
}

type fakeService struct{ services.Service }

func (fakeService) Name() string { return "fake" }

// TestScenarioShapes pins the generator contract: per-VM traces are
// hourly, the learning day is 24 samples, run windows match Days, and
// co-located VMs share an interference schedule.
func TestScenarioShapes(t *testing.T) {
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:          rand.New(rand.NewSource(3)),
		VMs:          8,
		Days:         2,
		VMsPerHost:   4,
		Interference: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if s.LearnTrace.Len() != 24 {
			t.Errorf("vm %d: learn trace %d samples", i, s.LearnTrace.Len())
		}
		if s.RunTrace.Len() != 48 {
			t.Errorf("vm %d: run trace %d samples, want 48", i, s.RunTrace.Len())
		}
		if s.Interference == nil {
			t.Errorf("vm %d: interference missing", i)
		}
	}
	// Correlation: same host, same schedule values; different hosts
	// were drawn independently.
	for _, at := range []time.Duration{0, 3 * time.Hour, 17 * time.Hour} {
		if specs[0].Interference(at) != specs[3].Interference(at) {
			t.Errorf("co-located VMs disagree on interference at %v", at)
		}
	}
}
