package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

// drawCounter counts the draws a profiler's rng makes.
type drawCounter struct {
	rand.Source64
	draws int
}

func (d *drawCounter) Int63() int64   { d.draws++; return d.Source64.Int63() }
func (d *drawCounter) Uint64() uint64 { d.draws++; return d.Source64.Uint64() }

// parkOnce answers every lookup one call late: the first Lookup of a
// round returns ErrParked, the re-call the wrapped source's answer. The
// re-call must carry the signature and bucket that parked.
type parkOnce struct {
	DecisionSource
	t      *testing.T
	row    []float64 // the parked values; nil while no round is open
	bucket int
	parks  int
}

func (p *parkOnce) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	if p.row == nil {
		p.row, p.bucket = append([]float64(nil), sig.Values...), bucket
		p.parks++
		return LookupResult{}, ErrParked
	}
	if !reflect.DeepEqual(sig.Values, p.row) || bucket != p.bucket {
		p.t.Errorf("re-call looked up %v in bucket %d; the round parked %v in bucket %d", sig.Values, bucket, p.row, p.bucket)
	}
	p.row = nil
	return p.DecisionSource.Lookup(sig, bucket)
}

// countLookups counts a source's lookups.
type countLookups struct {
	DecisionSource
	n int
}

func (c *countLookups) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	c.n++
	return c.DecisionSource.Lookup(sig, bucket)
}

// stepRecorder logs every action its controller returns but a park,
// with the profiler's rng draws so far.
type stepRecorder struct {
	*Controller
	rng   *drawCounter
	steps []recordedStep
}

type recordedStep struct {
	Now    time.Duration
	Act    sim.Action // Target moved into Target below
	Target cloud.Allocation
	Draws  int
}

func (r *stepRecorder) Step(obs *sim.Observation) (sim.Action, error) {
	act, err := r.Controller.Step(obs)
	if err != sim.ErrParked {
		s := recordedStep{Now: obs.Now, Act: act, Draws: r.rng.draws}
		if act.Target != nil {
			s.Target, s.Act.Target = *act.Target, nil
		}
		r.steps = append(r.steps, s)
	}
	return act, err
}

// TestControllerParkedRoundsEqualImmediate: a controller whose source
// parks every lookup once, run by a sim.Runner, returns the same
// actions on the same steps after the same number of rng draws as one
// whose source answers at once — with both reactions on, under host
// interference that sets the interference loop's Get, tune and Put
// going. Every profiling round parks exactly once, and the re-call
// looks up the signature and bucket that parked: finishing a round
// neither samples again nor re-estimates the bucket.
func TestControllerParkedRoundsEqualImmediate(t *testing.T) {
	tr := trace.Messenger(trace.SynthConfig{Rng: rand.New(rand.NewSource(3))}).ScaleTo(500)
	svc := services.NewCassandra()
	day0, err := tr.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Slice(24, 3*24)
	if err != nil {
		t.Fatal(err)
	}
	learnProf, err := NewProfiler(svc, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	learnTuner, err := NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
	if err != nil {
		t.Fatal(err)
	}
	learned, _, err := Learn(LearnConfig{
		Profiler: learnProf, Tuner: learnTuner, Workloads: WorkloadsFromTrace(day0, svc.DefaultMix()), Rng: rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := learned.Save(&saved); err != nil {
		t.Fatal(err)
	}

	// build returns a controller over a private copy of the repository,
	// its source wrapped by wrap, recording its steps.
	build := func(wrap func(DecisionSource) DecisionSource) *stepRecorder {
		repo, err := LoadRepository(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		src, err := SourceForRepository(repo)
		if err != nil {
			t.Fatal(err)
		}
		draws := &drawCounter{Source64: &rng.SplitMix64{}}
		draws.Seed(7)
		prof, err := NewProfiler(svc, rand.New(draws))
		if err != nil {
			t.Fatal(err)
		}
		tuner, err := NewScaleOutTuner(svc, cloud.Large, svc.MinInstances, svc.MaxInstances)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewController(ControllerConfig{
			Source: wrap(src), Profiler: prof, Tuner: tuner, Service: svc,
			InterferenceDetection: true, OnDemandProfiling: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &stepRecorder{Controller: ctl, rng: draws}
	}
	config := func(ctl sim.Controller) sim.Config {
		return sim.Config{
			Service: svc, Trace: run, Controller: ctl, Initial: svc.MaxAllocation(),
			Interference: func(now time.Duration) float64 {
				if now >= 6*time.Hour {
					return 0.2
				}
				return 0
			},
		}
	}

	var counted *countLookups
	immediate := build(func(src DecisionSource) DecisionSource {
		counted = &countLookups{DecisionSource: src}
		return counted
	})
	want, err := sim.Run(config(immediate))
	if err != nil {
		t.Fatal(err)
	}

	var parking *parkOnce
	parked := build(func(src DecisionSource) DecisionSource {
		parking = &parkOnce{DecisionSource: src, t: t}
		return parking
	})
	runner, err := sim.NewRunner(config(parked))
	if err != nil {
		t.Fatal(err)
	}
	advances := 0
	for more := true; more; advances++ {
		if more, err = runner.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	got := runner.Result()

	if counted.n == 0 || immediate.InterferenceEvents() == 0 || immediate.TuningCount() == 0 {
		t.Fatalf("%d lookups, %d interference events, %d tunings: the run does not reach every path",
			counted.n, immediate.InterferenceEvents(), immediate.TuningCount())
	}
	if parking.parks != counted.n || advances != counted.n+1 {
		t.Errorf("%d parks in %d advances, want one per round (%d)", parking.parks, advances, counted.n)
	}
	if len(parked.steps) != len(immediate.steps) {
		t.Fatalf("%d steps parked, %d immediate", len(parked.steps), len(immediate.steps))
	}
	for i := range immediate.steps {
		if parked.steps[i] != immediate.steps[i] {
			t.Fatalf("step %d: parked %+v, immediate %+v", i, parked.steps[i], immediate.steps[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the parked run's result differs")
	}
	if a, b := parked.AdaptationTimes(), immediate.AdaptationTimes(); !reflect.DeepEqual(a, b) ||
		parked.UnforeseenCount() != immediate.UnforeseenCount() || parked.TuningCount() != immediate.TuningCount() ||
		parked.InterferenceEvents() != immediate.InterferenceEvents() {
		t.Error("the parked controller's tallies differ")
	}
}
