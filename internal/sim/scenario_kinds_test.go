package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/services"
)

func genKind(t *testing.T, kind ScenarioKind, seed int64, vms int, interference bool) []VMSpec {
	t.Helper()
	specs, err := GenerateScenario(ScenarioConfig{
		Rng:          rand.New(rand.NewSource(seed)),
		Kind:         kind,
		VMs:          vms,
		Days:         1,
		Interference: interference,
	})
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return specs
}

// sampleSchedules compares the parts of a spec that are functions by
// sampling them over the run window.
func sameSchedules(a, b VMSpec) bool {
	for h := 0; h <= 24; h++ {
		at := time.Duration(h) * time.Hour
		switch {
		case (a.Interference == nil) != (b.Interference == nil):
			return false
		case a.Interference != nil && a.Interference(at) != b.Interference(at):
			return false
		}
	}
	return reflect.DeepEqual(a.MixShifts, b.MixShifts)
}

func sameSpec(a, b VMSpec) bool {
	if a.Name != b.Name || a.Service.Name() != b.Service.Name() ||
		a.HostCapacity != b.HostCapacity || a.JoinAt != b.JoinAt || a.LeaveAt != b.LeaveAt ||
		a.Seed != b.Seed || a.Mix.Name != b.Mix.Name {
		return false
	}
	if a.LearnTrace.Len() != b.LearnTrace.Len() || a.RunTrace.Len() != b.RunTrace.Len() {
		return false
	}
	for i := range a.LearnTrace.Loads {
		if a.LearnTrace.Loads[i] != b.LearnTrace.Loads[i] {
			return false
		}
	}
	for i := range a.RunTrace.Loads {
		if a.RunTrace.Loads[i] != b.RunTrace.Loads[i] {
			return false
		}
	}
	return sameSchedules(a, b)
}

// TestScenarioKindsDeterministicPerSeed extends the seed-pinning
// idiom to every scenario kind: two generations at the same seed are
// identical — traces, membership windows, capacities, and sampled
// schedules.
func TestScenarioKindsDeterministicPerSeed(t *testing.T) {
	kinds := append([]ScenarioKind{KindBaseline}, AdversarialKinds()...)
	for _, kind := range kinds {
		a := genKind(t, kind, 42, 8, true)
		b := genKind(t, kind, 42, 8, true)
		for i := range a {
			if !sameSpec(a[i], b[i]) {
				t.Errorf("%s: vm %d differs across same-seed generations", kind, i)
			}
		}
		c := genKind(t, kind, 43, 8, true)
		diff := false
		for i := range a {
			if !sameSpec(a[i], c[i]) {
				diff = true
				break
			}
		}
		if !diff {
			t.Errorf("%s: different seeds produced identical fleets", kind)
		}
	}
}

// TestScenarioKindsPrefixInvariant pins the derived-seed guarantee
// across every kind: without per-host interference schedules (which
// legitimately depend on host count), growing the fleet never
// perturbs the VMs already in it.
func TestScenarioKindsPrefixInvariant(t *testing.T) {
	kinds := append([]ScenarioKind{KindBaseline}, AdversarialKinds()...)
	for _, kind := range kinds {
		small := genKind(t, kind, 42, 4, false)
		large := genKind(t, kind, 42, 8, false)
		for i := range small {
			if !sameSpec(small[i], large[i]) {
				t.Errorf("%s: vm %d changed when the fleet grew from 4 to 8", kind, i)
			}
		}
	}
}

// TestScenarioBaselineUnperturbed is the compatibility invariant the
// whole subsystem hangs on: a config that never mentions Kind and one
// that names KindBaseline consume the identical RNG stream, so the
// golden-pinned benches and equivalence suites predating scenario
// kinds keep their byte-identical fleets.
func TestScenarioBaselineUnperturbed(t *testing.T) {
	implicit, err := GenerateScenario(ScenarioConfig{
		Rng: rand.New(rand.NewSource(42)), VMs: 8, Days: 1, Interference: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	explicit := genKind(t, KindBaseline, 42, 8, true)
	for i := range implicit {
		if !sameSpec(implicit[i], explicit[i]) {
			t.Fatalf("vm %d: explicit KindBaseline diverged from zero-value config", i)
		}
	}
	for _, s := range implicit {
		if s.JoinAt != 0 || s.LeaveAt != 0 || s.MixFn != nil || s.MixShifts != nil || s.HostCapacity != 1 {
			t.Fatalf("baseline vm %s carries adversarial state: %+v", s.Name, s)
		}
	}
}

// TestScenarioFlashCrowdShape: the spike is fleet-correlated and in
// the 10-100x band.
func TestScenarioFlashCrowdShape(t *testing.T) {
	base := genKind(t, KindBaseline, 42, 6, false)
	crowd := genKind(t, KindFlashCrowd, 42, 6, false)
	spikeHours := map[int]bool{}
	for i := range base {
		for h := range base[i].RunTrace.Loads {
			b, c := base[i].RunTrace.Loads[h], crowd[i].RunTrace.Loads[h]
			if b == 0 {
				continue
			}
			switch ratio := c / b; {
			case ratio == 1:
			case ratio >= 10 && ratio <= 100:
				spikeHours[h] = true
			default:
				t.Fatalf("vm %d hour %d: spike ratio %.1f outside {1} U [10, 100]", i, h, ratio)
			}
		}
	}
	if len(spikeHours) == 0 {
		t.Fatal("flash crowd produced no spiked hours")
	}
	if len(spikeHours) > 4 {
		t.Errorf("spike lasted %d hours, want at most 4", len(spikeHours))
	}
	// Correlation: every VM spikes in the same hours.
	for i := range crowd {
		for h := range spikeHours {
			if crowd[i].RunTrace.Loads[h] == base[i].RunTrace.Loads[h] && base[i].RunTrace.Loads[h] > 0 {
				t.Errorf("vm %d missed the fleet-wide spike at hour %d", i, h)
			}
		}
	}
}

// TestScenarioChurnShape: membership windows exist, stay inside the
// run, and full-time VMs remain.
func TestScenarioChurnShape(t *testing.T) {
	specs := genKind(t, KindChurn, 42, 9, false)
	joins, leaves, full := 0, 0, 0
	for _, s := range specs {
		switch {
		case s.JoinAt > 0 && s.LeaveAt > 0:
			t.Errorf("vm %s both joins and leaves", s.Name)
		case s.JoinAt > 0:
			joins++
			if s.JoinAt >= 24*time.Hour {
				t.Errorf("vm %s joins at %v, after the run window", s.Name, s.JoinAt)
			}
		case s.LeaveAt > 0:
			leaves++
			if s.LeaveAt >= 24*time.Hour || s.LeaveAt < 12*time.Hour {
				t.Errorf("vm %s leaves at %v, outside the preemption band", s.Name, s.LeaveAt)
			}
		default:
			full++
		}
	}
	if joins == 0 || leaves == 0 || full == 0 {
		t.Fatalf("churn fleet shape: %d joins, %d leaves, %d full-time", joins, leaves, full)
	}
}

// TestScenarioWorkloadShiftShape: each VM's mix flips exactly once,
// mid-run, to the service's alternate mix — and the deprecated closure
// the generator still fills says the same as the schedule, minute by
// minute.
func TestScenarioWorkloadShiftShape(t *testing.T) {
	specs := genKind(t, KindWorkloadShift, 42, 8, false)
	for _, s := range specs {
		if len(s.MixShifts) != 1 {
			t.Fatalf("vm %s has %d mix shifts, want exactly 1", s.Name, len(s.MixShifts))
		}
		shift := s.MixShifts[0]
		if shift.At <= 0 || shift.At >= 24*time.Hour {
			t.Errorf("vm %s shifts at %v, want mid-run", s.Name, shift.At)
		}
		if shift.Mix != altMix(s.Service) || shift.Mix.Name == s.Mix.Name {
			t.Errorf("vm %s shifts from %q to %q, want its alternate mix", s.Name, s.Mix.Name, shift.Mix.Name)
		}
		for m := 0; m <= 24*60; m++ {
			at := time.Duration(m) * time.Minute
			want := s.Mix
			if at >= shift.At {
				want = shift.Mix
			}
			if got := s.MixFn(at); got != want {
				t.Fatalf("vm %s at %v: MixFn says %q, the schedule %q", s.Name, at, got.Name, want.Name)
			}
		}
	}
}

// TestScenarioHardwareGenShape: capacities follow the generation
// ladder per host and feed the interference index, which must stay a
// valid fraction.
func TestScenarioHardwareGenShape(t *testing.T) {
	specs := genKind(t, KindHardwareGen, 42, 16, true)
	gens := map[float64]bool{}
	for _, s := range specs {
		if s.HostCapacity <= 0 || s.HostCapacity > 1 {
			t.Fatalf("vm %s capacity %v outside (0, 1]", s.Name, s.HostCapacity)
		}
		gens[s.HostCapacity] = true
		if s.HostCapacity < 1 {
			if s.Interference == nil {
				t.Fatalf("vm %s on old hardware has no interference schedule", s.Name)
			}
			for h := 0; h < 24; h++ {
				f := s.Interference(time.Duration(h) * time.Hour)
				if f < 0 || f >= 1 {
					t.Fatalf("vm %s interference %v at hour %d outside [0, 1)", s.Name, f, h)
				}
				// The capacity deficit is a floor under composed
				// interference: at least 1 - multiplier is always stolen.
				if f < 1-s.HostCapacity-1e-12 {
					t.Fatalf("vm %s interference %v below its %v hardware deficit", s.Name, f, 1-s.HostCapacity)
				}
			}
		}
	}
	if len(gens) < 3 {
		t.Errorf("16 VMs across 4 hosts use %d hardware generations, want >= 3", len(gens))
	}
}

// TestScenarioTraceReplayShape: replayed fleets still produce
// engine-ready traces of the right span, scaled to service peaks.
func TestScenarioTraceReplayShape(t *testing.T) {
	specs := genKind(t, KindTraceReplay, 42, 6, false)
	base := genKind(t, KindBaseline, 42, 6, false)
	replayDiffers := false
	for i, s := range specs {
		if s.LearnTrace.Len() != 24 || s.RunTrace.Len() != 24 {
			t.Fatalf("vm %s trace lengths %d/%d, want 24/24", s.Name, s.LearnTrace.Len(), s.RunTrace.Len())
		}
		peak := servicePeakClients(s.Service)
		for h, l := range s.RunTrace.Loads {
			if l < 0 || l > peak {
				t.Fatalf("vm %s hour %d load %v outside [0, %v]", s.Name, h, l, peak)
			}
		}
		for h := range s.RunTrace.Loads {
			if s.RunTrace.Loads[h] != base[i].RunTrace.Loads[h] {
				replayDiffers = true
			}
		}
	}
	if !replayDiffers {
		t.Fatal("trace replay reproduced the diurnal baseline exactly")
	}
}

func TestScenarioKindParseRoundTrip(t *testing.T) {
	kinds := append([]ScenarioKind{KindBaseline}, AdversarialKinds()...)
	for _, kind := range kinds {
		got, err := ParseKind(kind.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != kind {
			t.Errorf("%s parsed to %s", kind, got)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown kind should fail to parse")
	}
}

// TestAltMixDiffers pins that every service template has a genuine
// alternate mix for the workload-shift kind.
func TestAltMixDiffers(t *testing.T) {
	for _, svc := range []services.Service{services.NewCassandra(), services.NewSPECWeb(), services.NewRUBiS()} {
		if altMix(svc).Name == svc.DefaultMix().Name {
			t.Errorf("%s alternate mix equals its default", svc.Name())
		}
	}
}

// TestGenerateScenarioSharesServicePerTemplate pins the generator's
// contract: the VMs of one template hold one service value, the same
// pointer, for every kind, heterogeneous and homogeneous, and each
// template's value is the stock configuration of its constructor.
func TestGenerateScenarioSharesServicePerTemplate(t *testing.T) {
	stock := map[string]services.Service{
		"cassandra": services.NewCassandra(),
		"specweb":   services.NewSPECWeb(),
		"rubis":     services.NewRUBiS(),
	}
	for _, kind := range append([]ScenarioKind{KindBaseline}, AdversarialKinds()...) {
		for _, homogeneous := range []bool{false, true} {
			specs, err := GenerateScenario(ScenarioConfig{
				Rng: rand.New(rand.NewSource(3)), Kind: kind, VMs: 12, Days: 1, Homogeneous: homogeneous,
			})
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string]services.Service{}
			for i, spec := range specs {
				name := spec.Service.Name()
				if first, ok := byName[name]; !ok {
					byName[name] = spec.Service
					if !reflect.DeepEqual(spec.Service, stock[name]) {
						t.Errorf("%s: vm %d's %s is not the stock configuration: %+v", kind, i, name, spec.Service)
					}
				} else if spec.Service != first {
					t.Errorf("%s, homogeneous %v: vm %d holds a %s service value of its own", kind, homogeneous, i, name)
				}
			}
			if want := map[bool]int{false: 3, true: 1}[homogeneous]; len(byName) != want {
				t.Errorf("%s, homogeneous %v: %d templates, want %d", kind, homogeneous, len(byName), want)
			}
		}
	}
}
