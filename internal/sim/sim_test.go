package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/trace"
)

// fixedController always keeps the initial allocation.
type fixedController struct{ alloc cloud.Allocation }

func (f *fixedController) Name() string { return "fixed" }
func (f *fixedController) Step(*Observation) (Action, error) {
	return Action{}, nil
}

// oracleController jumps straight to the analytically required
// allocation at every step (no decision latency).
type oracleController struct {
	svc services.Service
	typ cloud.InstanceType
	max int
	min int
}

func (o *oracleController) Name() string { return "oracle" }
func (o *oracleController) Step(obs *Observation) (Action, error) {
	req := services.RequiredCapacity(o.svc, obs.Workload)
	count := int(math.Ceil(req / o.typ.Capacity))
	if count < o.min {
		count = o.min
	}
	if count > o.max {
		count = o.max
	}
	target := cloud.Allocation{Type: o.typ, Count: count}
	if target.Equal(obs.TargetAllocation) {
		return Action{}, nil
	}
	return Action{Target: &target}, nil
}

// errController returns an error on the first step.
type errController struct{}

func (errController) Name() string                      { return "err" }
func (errController) Step(*Observation) (Action, error) { return Action{}, errors.New("boom") }

func flatTrace(clients float64, hours int) *trace.Trace {
	loads := make([]float64, hours*60)
	for i := range loads {
		loads[i] = clients
	}
	return &trace.Trace{Name: "flat", Step: time.Minute, Loads: loads}
}

func TestRunValidation(t *testing.T) {
	svc := services.NewCassandra()
	tr := flatTrace(100, 1)
	ctl := &fixedController{}
	good := Config{Service: svc, Trace: tr, Controller: ctl,
		Initial: cloud.Allocation{Type: cloud.Large, Count: 2}}

	bad := good
	bad.Service = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil service should error")
	}
	bad = good
	bad.Trace = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil trace should error")
	}
	bad = good
	bad.Controller = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil controller should error")
	}
	bad = good
	bad.Initial = cloud.Allocation{}
	if _, err := Run(bad); err == nil {
		t.Error("invalid initial allocation should error")
	}
	for _, step := range []time.Duration{0, -time.Minute} {
		bad = good
		bad.Trace = &trace.Trace{Name: "flat", Step: step, Loads: tr.Loads}
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), step.String()) {
			t.Errorf("trace step %v: got %v, want an error naming the step", step, err)
		}
	}
}

func TestRunControllerError(t *testing.T) {
	cfg := Config{
		Service:    services.NewCassandra(),
		Trace:      flatTrace(100, 1),
		Controller: errController{},
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 2},
	}
	if _, err := Run(cfg); err == nil {
		t.Error("controller error should propagate")
	}
}

func TestRunFixedAllocationAccounting(t *testing.T) {
	svc := services.NewCassandra()
	tr := flatTrace(100, 2) // 2 hours flat at 100 clients
	cfg := Config{
		Service:    svc,
		Trace:      tr,
		Controller: &fixedController{},
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 4},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 120 {
		t.Fatalf("records=%d want 120", len(res.Records))
	}
	// Cost: 4 large x 2h x $0.34 = $2.72.
	if math.Abs(res.TotalCost-2.72) > 1e-6 {
		t.Errorf("TotalCost=%v want 2.72", res.TotalCost)
	}
	// 100 clients on 4 instances: rho = 100/268 -> low latency, no
	// violations.
	if res.SLOViolationFraction != 0 {
		t.Errorf("violations=%v want 0", res.SLOViolationFraction)
	}
	if res.Decisions != 0 || len(res.Episodes) != 0 {
		t.Errorf("fixed controller made decisions: %d episodes: %d", res.Decisions, len(res.Episodes))
	}
	if res.MeanAllocatedInstances() != 4 {
		t.Errorf("mean instances=%v want 4", res.MeanAllocatedInstances())
	}
}

func TestRunUnderprovisionedViolates(t *testing.T) {
	svc := services.NewCassandra()
	// 2 instances serve 134 clients at rho=1: saturated at 400.
	tr := flatTrace(400, 1)
	cfg := Config{
		Service:    svc,
		Trace:      tr,
		Controller: &fixedController{},
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 2},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOViolationFraction < 0.99 {
		t.Errorf("saturated run should violate ~always, got %v", res.SLOViolationFraction)
	}
}

func TestRunOracleAdapts(t *testing.T) {
	svc := services.NewCassandra()
	// Step load: low then high.
	loads := make([]float64, 120)
	for i := range loads {
		if i < 60 {
			loads[i] = 150
		} else {
			loads[i] = 450
		}
	}
	tr := &trace.Trace{Name: "step", Step: time.Minute, Loads: loads}
	ctl := &oracleController{svc: svc, typ: cloud.Large, max: 10, min: 2}
	res, err := Run(Config{
		Service: svc, Trace: tr, Controller: ctl,
		Initial: cloud.Allocation{Type: cloud.Large, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions == 0 {
		t.Fatal("oracle should have adapted")
	}
	// After adaptation the high phase should meet the SLO except the
	// brief warmup/stabilization transient.
	late := res.Records[90:]
	violations := 0
	for _, r := range late {
		if r.SLOViolated {
			violations++
		}
	}
	if violations > len(late)/4 {
		t.Errorf("late-phase violations %d/%d too high", violations, len(late))
	}
	// The final allocation must be larger than the initial.
	last := res.Records[len(res.Records)-1].Alloc
	if last.Count <= 3 {
		t.Errorf("final count=%d want > 3", last.Count)
	}
	if len(res.Episodes) == 0 {
		t.Error("adaptation should be recorded as an episode")
	}
}

func TestRunInterferenceReducesCapacity(t *testing.T) {
	svc := services.NewCassandra()
	tr := flatTrace(350, 1)
	run := func(interf func(time.Duration) float64) *Result {
		res, err := Run(Config{
			Service: svc, Trace: tr, Controller: &fixedController{},
			Initial:      cloud.Allocation{Type: cloud.Large, Count: 7},
			Interference: interf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	dirty := run(func(time.Duration) float64 { return 0.2 })
	if dirty.Records[30].LatencyMs <= clean.Records[30].LatencyMs {
		t.Errorf("interference should raise latency: %v vs %v",
			dirty.Records[30].LatencyMs, clean.Records[30].LatencyMs)
	}
	if dirty.Records[30].Interference != 0.2 {
		t.Errorf("interference not recorded: %v", dirty.Records[30].Interference)
	}
}

func TestRunInvalidInterference(t *testing.T) {
	svc := services.NewCassandra()
	for _, frac := range []float64{1.5, 1, -0.1} {
		_, err := Run(Config{
			Service: svc, Trace: flatTrace(100, 1), Controller: &fixedController{},
			Initial:      cloud.Allocation{Type: cloud.Large, Count: 2},
			Interference: func(time.Duration) float64 { return frac },
		})
		if err == nil || !strings.HasPrefix(err.Error(), "sim: interference at ") {
			t.Errorf("interference fraction %v: err %v, want the sim range error", frac, err)
		}
	}
}

func TestRunStabilizationTransient(t *testing.T) {
	svc := services.NewCassandra() // 20 min re-partitioning
	loads := make([]float64, 120)
	for i := range loads {
		if i < 30 {
			loads[i] = 150
		} else {
			loads[i] = 300
		}
	}
	tr := &trace.Trace{Name: "step", Step: time.Minute, Loads: loads}
	ctl := &oracleController{svc: svc, typ: cloud.Large, max: 10, min: 2}
	res, err := Run(Config{
		Service: svc, Trace: tr, Controller: ctl,
		Initial: cloud.Allocation{Type: cloud.Large, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find the change-effective minute, then confirm elevated latency
	// shortly after versus well after.
	changeIdx := -1
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Alloc.Count != res.Records[i-1].Alloc.Count {
			changeIdx = i
			break
		}
	}
	if changeIdx < 0 {
		t.Fatal("no allocation change observed")
	}
	justAfter := res.Records[changeIdx].LatencyMs
	muchLater := res.Records[len(res.Records)-1].LatencyMs
	if justAfter <= muchLater {
		t.Errorf("stabilization transient missing: %v vs %v", justAfter, muchLater)
	}
}

func TestMeanAdaptation(t *testing.T) {
	r := &Result{}
	if r.MeanAdaptation() != 0 {
		t.Error("no episodes should mean 0")
	}
	r.Episodes = []Episode{{Duration: time.Minute}, {Duration: 3 * time.Minute}}
	if r.MeanAdaptation() != 2*time.Minute {
		t.Errorf("MeanAdaptation=%v want 2m", r.MeanAdaptation())
	}
}

func TestCostSavings(t *testing.T) {
	r := &Result{TotalCost: 40}
	if got := r.CostSavingsVs(100); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("savings=%v want 0.6", got)
	}
	if got := r.CostSavingsVs(0); got != 0 {
		t.Errorf("zero reference savings=%v want 0", got)
	}
	expensive := &Result{TotalCost: 200}
	if got := expensive.CostSavingsVs(100); got != 0 {
		t.Errorf("negative savings clamped, got %v", got)
	}
}

func TestFixedMaxCost(t *testing.T) {
	svc := services.NewCassandra()
	tr := flatTrace(100, 10)
	// 10 large x 10h x 0.34 = 34.
	if got := FixedMaxCost(svc, tr); math.Abs(got-34) > 1e-9 {
		t.Errorf("FixedMaxCost=%v want 34", got)
	}
}

func TestRunDefaultMixApplied(t *testing.T) {
	svc := services.NewCassandra()
	res, err := Run(Config{
		Service: svc, Trace: flatTrace(100, 1), Controller: &fixedController{},
		Initial: cloud.Allocation{Type: cloud.Large, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
}

// TestRunMixFn covers the deprecated per-step fallback: the closure is
// consulted once on every step.
func TestRunMixFn(t *testing.T) {
	svc := services.NewCassandra()
	calls := 0
	_, err := Run(Config{
		Service: svc, Trace: flatTrace(100, 1), Controller: &fixedController{},
		Initial: cloud.Allocation{Type: cloud.Large, Count: 2},
		MixFn: func(now time.Duration) services.Mix {
			calls++
			return svc.DefaultMix()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 60 {
		t.Errorf("MixFn called %d times want 60", calls)
	}
}
