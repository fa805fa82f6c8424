package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// parkingSource answers every lookup one call late, from a repository:
// the first Lookup of a profiling round returns core.ErrParked and the
// controller's re-call gets the answer.
type parkingSource struct {
	core.DecisionSource
	open        bool
	parks, asks int
}

func (s *parkingSource) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	if s.open = !s.open; s.open {
		s.parks++
		return core.LookupResult{}, core.ErrParked
	}
	s.asks++
	return s.DecisionSource.Lookup(sig, bucket)
}

// parkingController is controllerWith over a source that parks every
// lookup once.
func (k *vmKit) parkingController(tb testing.TB, detect, onDemand bool) (*core.Controller, *parkingSource) {
	tb.Helper()
	repo, err := core.LoadRepository(bytes.NewReader(k.repo))
	if err != nil {
		tb.Fatal(err)
	}
	src, err := core.SourceForRepository(repo)
	if err != nil {
		tb.Fatal(err)
	}
	parking := &parkingSource{DecisionSource: src}
	prof, tuner := k.profilerAndTuner(tb)
	ctl, err := core.NewController(core.ControllerConfig{
		Source: parking, Profiler: prof, Tuner: tuner, Service: k.spec.Service,
		InterferenceDetection: detect, OnDemandProfiling: onDemand,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ctl, parking
}

// TestRunnerParkedEqualsRun: a Runner whose controller parks on every
// profiling round, answered from a repository on the next Advance,
// gives a Result deeply equal to Run's over the same repository
// answering at once, and equal controller tallies — over the three
// templates, with MixFn and Interference each nil or a closure, both
// reactions on and off, and records on and off. Each round parks once,
// and Advance after the end is an error. The same parking controller
// under plain Run is an error too.
func TestRunnerParkedEqualsRun(t *testing.T) {
	for _, k := range newVMKits(t) {
		k := k
		t.Run(k.spec.Service.Name(), func(t *testing.T) {
			for c := 0; c < 16; c++ {
				detect, onDemand := c&1 == 1, c&2 == 2
				cfg := k.config(nil)
				cfg.MixShifts = k.spec.MixShifts
				if c&4 == 4 {
					cfg.MixShifts, cfg.MixFn = nil, mixFnOf(k.spec.Mix, k.spec.MixShifts)
				}
				if c&8 == 8 {
					cfg.Interference = nil
				}
				cfg.DiscardRecords = c%3 == 0
				name := func() string {
					return fmt.Sprintf("detect %v, on-demand %v, MixFn %v, interference %v, discard %v",
						detect, onDemand, cfg.MixFn != nil, cfg.Interference != nil, cfg.DiscardRecords)
				}

				oracle := k.controllerWith(t, detect, onDemand)
				cfg.Controller = oracle
				want, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name(), err)
				}

				ctl, parking := k.parkingController(t, detect, onDemand)
				cfg.Controller = ctl
				r, err := sim.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				advances := 0
				for parked := true; parked; advances++ {
					if parked, err = r.Advance(); err != nil {
						t.Fatalf("%s: advance %d: %v", name(), advances, err)
					}
				}
				if !reflect.DeepEqual(r.Result(), want) {
					got := r.Result()
					t.Fatalf("%s: parked and immediate runs differ (cost %v vs %v, SLO %v vs %v, %d vs %d steps)",
						name(), got.TotalCost, want.TotalCost, got.SLOViolationFraction, want.SLOViolationFraction, got.Steps, want.Steps)
				}
				if a, b := tallies(ctl), tallies(oracle); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: controller tallies differ: %v vs %v", name(), a, b)
				}
				if parking.parks == 0 || parking.parks != parking.asks || advances != parking.parks+1 {
					t.Fatalf("%s: %d parks, %d answers in %d advances; want one park per round", name(), parking.parks, parking.asks, advances)
				}
				if _, err := r.Advance(); err == nil {
					t.Fatalf("%s: Advance after the end succeeded", name())
				}
			}
		})
	}

	k := newVMKits(t)[0]
	ctl, _ := k.parkingController(t, false, false)
	if _, err := sim.Run(k.config(ctl)); err == nil || !strings.Contains(err.Error(), "parked outside a Runner") {
		t.Fatalf("Run with a parking controller: %v", err)
	}
}
