package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/trace"
)

// ScenarioKind selects the adversarial axis a generated fleet
// stresses. KindBaseline reproduces the original staggered-diurnal
// fleet byte-for-byte; every other kind perturbs exactly one variable
// so the claims harness can attribute the measured delta to it.
type ScenarioKind int

const (
	// KindBaseline is the unperturbed staggered-diurnal fleet.
	KindBaseline ScenarioKind = iota
	// KindFlashCrowd injects a fleet-correlated 10–100x load spike
	// over a few run hours.
	KindFlashCrowd
	// KindChurn gives VMs membership windows: spot instances join
	// late and are preempted mid-run.
	KindChurn
	// KindWorkloadShift flips each VM's request mix mid-stream (the
	// paper's Figure 11 workload type change, as a fleet axis).
	KindWorkloadShift
	// KindHardwareGen places hosts on heterogeneous hardware
	// generations whose capacity deficit feeds the interference index.
	KindHardwareGen
	// KindTraceReplay drives every VM from a resampled synthesized
	// cluster recording instead of generated diurnal phases.
	KindTraceReplay
)

var kindNames = map[ScenarioKind]string{
	KindBaseline:      "baseline",
	KindFlashCrowd:    "flash-crowd",
	KindChurn:         "churn",
	KindWorkloadShift: "workload-shift",
	KindHardwareGen:   "hardware-gen",
	KindTraceReplay:   "trace-replay",
}

func (k ScenarioKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind maps a scenario-kind name (as printed by String) back to
// the kind, for CLI flags.
func ParseKind(s string) (ScenarioKind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scenario kind %q", s)
}

// AdversarialKinds lists every non-baseline kind in claims-harness
// order.
func AdversarialKinds() []ScenarioKind {
	return []ScenarioKind{KindFlashCrowd, KindChurn, KindWorkloadShift, KindHardwareGen, KindTraceReplay}
}

// VMSpec describes one logical VM of a multi-tenant fleet scenario:
// which service template it runs, the load it sees, and the co-located
// interference it suffers. The fleet control plane turns each spec
// into a controller plus a simulation run.
type VMSpec struct {
	// Name identifies the VM (tenant) in reports and bills.
	Name string
	// Service is the service template the VM runs. VMs sharing a
	// template share a signature repository, so allocations learned
	// on one are instantly reusable by the others. GenerateScenario
	// gives them one service value, which must not be mutated.
	Service services.Service
	// LearnTrace is the VM's learning-day load (24 hourly samples).
	LearnTrace *trace.Trace
	// RunTrace is the load replayed during the evaluated window.
	RunTrace *trace.Trace
	// Mix is the request mix.
	Mix services.Mix
	// Interference gives the co-located contention fraction over
	// time; VMs placed on the same host share the same schedule
	// (correlated interference). Nil means an isolated VM.
	Interference func(now time.Duration) float64
	// MixShifts, sorted by At, is the VM's mid-stream workload type
	// changes. At is fleet-absolute run time, like JoinAt: a VM that
	// joins after a shift runs its whole window on the shifted mix.
	MixShifts []MixShift
	// MixFn is the same schedule as a per-step closure; now is
	// fleet-absolute run time too. The fleet control plane does not
	// run it.
	//
	// Deprecated: use MixShifts. Kept only because the frozen
	// benchmark/tracefleet.go still reads it.
	MixFn func(now time.Duration) services.Mix
	// HostCapacity is the host's hardware-generation capacity
	// multiplier in (0, 1]; 0 is treated as 1 (current generation).
	// The generator folds the deficit into Interference, so the field
	// is informational for placement-aware consumers and reports.
	HostCapacity float64
	// JoinAt and LeaveAt bound the VM's membership window in
	// fleet-absolute run time: the VM starts stepping at JoinAt and is
	// preempted at LeaveAt. Zero JoinAt means present from the start;
	// zero LeaveAt means it stays to the end. Both must be whole
	// multiples of RunTrace.Step: the fleet cuts the window in whole
	// trace samples and refuses one off that grid.
	JoinAt, LeaveAt time.Duration
	// Seed drives the VM's private randomness (profiling noise).
	Seed int64
}

// maxStaggerHours staggers each VM's diurnal phase: tenant i's trace is
// rotated by a random 0..maxStaggerHours hours, so phase changes arrive
// spread over the fleet instead of in lockstep.
const maxStaggerHours = 6

// ScenarioConfig parameterizes the fleet scenario generator.
type ScenarioConfig struct {
	// Rng drives all scenario randomness; required.
	Rng *rand.Rand
	// Kind selects the adversarial axis (default KindBaseline). Every
	// non-baseline kind draws its perturbations from streams the
	// baseline never touches, so baseline output is byte-identical to
	// a config without the field.
	Kind ScenarioKind
	// VMs is the fleet size (default 1).
	VMs int
	// Days is the evaluated window per VM, after the learning day
	// (default 1, so two trace days are consumed in total).
	Days int
	// VMsPerHost sets the consolidation ratio: VMs on the same host
	// see the same interference schedule (default 4).
	VMsPerHost int
	// Interference enables the per-host contention schedules.
	Interference bool
	// Homogeneous pins every VM to Cassandra (the paper's scale-out
	// case study); otherwise the fleet mixes all three service
	// templates.
	Homogeneous bool
}

// servicePeakClients returns the trace peak used for each service
// template, chosen so the peak saturates roughly 3/4 of full capacity
// (the operating points the paper evaluates).
func servicePeakClients(svc services.Service) float64 {
	switch svc.Name() {
	case "specweb":
		return 350
	case "rubis":
		return 800
	default: // cassandra
		return 480
	}
}

// scaleRotate fuses Trace.ScaleTo with a left rotation by h samples
// into one output trace: out[i] = t[(i+h) mod n] / peak(t) * peak.
// Scaling is elementwise and rotation a permutation, so the fused form
// computes exactly the values rotate(scale(t)) did — it just skips the
// intermediate week-sized copy, which the scenario generator used to
// make once per VM.
func scaleRotate(t *trace.Trace, peak float64, h int) *trace.Trace {
	n := t.Len()
	out := &trace.Trace{Name: t.Name, Step: t.Step, Loads: make([]float64, n)}
	if n == 0 {
		return out
	}
	h = ((h % n) + n) % n
	cur := t.Peak()
	if cur == 0 {
		for i := 0; i < n; i++ {
			out.Loads[i] = t.Loads[(i+h)%n]
		}
		return out
	}
	for i := 0; i < n; i++ {
		out.Loads[i] = t.Loads[(i+h)%n] / cur * peak
	}
	return out
}

// altMix returns the service's alternate request mix — the "after"
// side of a mid-stream workload type change (paper Figure 11 flips
// between exactly such mix pairs).
func altMix(svc services.Service) services.Mix {
	switch s := svc.(type) {
	case *services.Cassandra:
		return s.ReadMostlyMix()
	case *services.SPECWeb:
		return s.EcommerceMix()
	case *services.RUBiS:
		return s.SellingMix()
	}
	return svc.DefaultMix()
}

// hardwareGens is the capacity-multiplier ladder for KindHardwareGen:
// hosts cycle through generations, oldest at just over half the
// current generation's capacity. The deficit (1 - multiplier) is
// composed into the interference fraction, so a tenant on gen-3
// hardware observes the same signal as one next to a noisy neighbor
// stealing 45% of the machine.
var hardwareGens = [...]float64{1.0, 0.85, 0.7, 0.55}

// composeCapacity folds a host capacity multiplier into an
// interference schedule: with multiplier m and co-located contention
// f, the usable fraction is m*(1-f), i.e. an effective interference
// fraction of 1 - m*(1-f). Stays in [0, 1) for m in (0, 1], f in [0, 1).
func composeCapacity(mult float64, inner func(time.Duration) float64) func(time.Duration) float64 {
	return func(now time.Duration) float64 {
		f := 0.0
		if inner != nil {
			f = inner(now)
		}
		return 1 - mult*(1-f)
	}
}

// kindStream is the Derive index carving each VM's kind-perturbation
// stream out of its seed, disjoint from the trace-synthesis stream so
// adversarial draws never shift a VM's private load noise;
// fleetKindStream does the same for fleet-correlated draws off the
// base seed. Both sit far above any realistic VM index.
const (
	kindStream      = 7919
	fleetKindStream = 104729
)

// hostInterference builds one host's contention schedule: square waves
// of 10–30% stolen capacity with a host-specific period and phase, the
// shape of a noisy neighbor appearing and leaving.
func hostInterference(rng *rand.Rand) func(now time.Duration) float64 {
	low := 0.05 + 0.10*rng.Float64()
	high := low + 0.05 + 0.10*rng.Float64()
	period := time.Duration(4+rng.Intn(8)) * time.Hour
	phase := time.Duration(rng.Intn(12)) * time.Hour
	return func(now time.Duration) float64 {
		if int((now+phase)/period)%2 == 0 {
			return low
		}
		return high
	}
}

// GenerateScenario builds a heterogeneous multi-VM fleet scenario:
// each VM gets its own synthetic week (private noise), a staggered
// diurnal phase, a service template, and a host placement whose
// interference schedule it shares with its co-located neighbors. The
// VMs of one template share one service value — their Service fields
// hold the same pointer — so nothing may mutate a generated VM's
// service; a VM that needs another configuration gets a service value
// of its own. (The fleet recognizes a template's VMs by that pointer
// before it falls back to comparing configurations.)
func GenerateScenario(cfg ScenarioConfig) ([]VMSpec, error) {
	if cfg.Rng == nil {
		return nil, errors.New("sim: scenario needs a Rng")
	}
	if cfg.VMs <= 0 {
		cfg.VMs = 1
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	if cfg.Days > 6 {
		return nil, fmt.Errorf("sim: %d run days exceed the 7-day traces (1 learning day + 6)", cfg.Days)
	}
	if cfg.VMsPerHost <= 0 {
		cfg.VMsPerHost = 4
	}

	hosts := (cfg.VMs + cfg.VMsPerHost - 1) / cfg.VMsPerHost
	schedules := make([]func(time.Duration) float64, hosts)
	if cfg.Interference {
		for h := range schedules {
			schedules[h] = hostInterference(cfg.Rng)
		}
	}
	// Hardware generations are a per-host property, so the composed
	// capacity-deficit schedule is built once per host and shared by
	// its co-located VMs — O(hosts) closures instead of O(VMs). The
	// composition itself is unchanged, so every VM observes the same
	// schedule values as before.
	var hostCaps []float64
	if cfg.Kind == KindHardwareGen {
		hostCaps = make([]float64, hosts)
		for h := range hostCaps {
			hostCaps[h] = hardwareGens[h%len(hardwareGens)]
			if hostCaps[h] < 1 {
				schedules[h] = composeCapacity(hostCaps[h], schedules[h])
			}
		}
	}

	// One base draw from the scenario Rng seeds every VM's private
	// stream (via rng.Derive); the scenario Rng itself is consumed
	// only for fleet-level choices (stagger, interference schedules).
	base := cfg.Rng.Int63()

	// Fleet-level adversarial draws come from a stream derived off the
	// base seed, never from cfg.Rng itself: the baseline stream —
	// which golden results, benches and the remote-equivalence suite
	// pin — stays byte-identical, and an adversarial fleet differs
	// from its baseline only where its kind perturbs it (one variable
	// per scenario, so a measured delta attributes cleanly).
	runHours := cfg.Days * 24
	var spikeStart, spikeLen int
	var spikeFactor float64
	if cfg.Kind == KindFlashCrowd {
		spikeRng := rng.New(rng.Derive(base, fleetKindStream))
		spikeLen = 2 + spikeRng.Intn(3)
		spikeStart = spikeRng.Intn(runHours - spikeLen)
		spikeFactor = 10 + 90*spikeRng.Float64()
	}

	cassandra, specweb, rubis := services.NewCassandra(), services.NewSPECWeb(), services.NewRUBiS()
	specs := make([]VMSpec, 0, cfg.VMs)
	for i := 0; i < cfg.VMs; i++ {
		var svc services.Service = cassandra
		if !cfg.Homogeneous {
			// Weighted palette: the scale-out case study dominates,
			// with scale-up and three-tier tenants mixed in.
			switch i % 4 {
			case 1:
				svc = specweb
			case 3:
				svc = rubis
			}
		}

		// Per-VM streams are derived splitmix64 seeds: one integer
		// write per VM instead of math/rand's 607-word up-front table
		// expansion, and VM i's stream depends only on (base, i), so
		// adding VMs never perturbs the existing ones.
		vmSeed := rng.Derive(base, i)
		vmRng := rng.New(vmSeed)
		var week *trace.Trace
		if cfg.Kind == KindTraceReplay {
			// Replay path: the VM's load is a resampled cluster
			// recording — irregular scrape cadence, outage gaps,
			// incident bursts — run through the same zero-order hold a
			// recorded production trace would be.
			rec := trace.SynthCluster(trace.ClusterConfig{Rng: vmRng, Days: 1 + cfg.Days})
			var err error
			week, err = rec.Resample(time.Hour)
			if err != nil {
				return nil, fmt.Errorf("sim: scenario vm %d replay: %w", i, err)
			}
		} else if i%2 == 0 {
			week = trace.Messenger(trace.SynthConfig{Rng: vmRng, DailyPhaseShift: true})
		} else {
			week = trace.HotMail(trace.SynthConfig{Rng: vmRng, DailyPhaseShift: true})
		}
		// Fused scale+rotate, then aliased learning/run windows: the
		// generator materializes exactly one week-sized slice per VM
		// instead of the four copies the composition of ScaleTo,
		// rotateHours, Day, and Slice used to make. The stagger draw
		// stays on cfg.Rng in the same stream position. The windows are
		// disjoint ([0,24) vs [24,...)), so the flash-crowd in-place
		// spike on the run window below never touches the learning day.
		stagger := cfg.Rng.Intn(maxStaggerHours + 1)
		week = scaleRotate(week, servicePeakClients(svc), stagger)

		learn, err := week.View(0, 24)
		if err != nil {
			return nil, fmt.Errorf("sim: scenario vm %d: %w", i, err)
		}
		run, err := week.View(24, (1+cfg.Days)*24)
		if err != nil {
			return nil, fmt.Errorf("sim: scenario vm %d: %w", i, err)
		}

		host := i / cfg.VMsPerHost
		spec := VMSpec{
			Name:         fmt.Sprintf("vm-%03d-%s", i, svc.Name()),
			Service:      svc,
			LearnTrace:   learn,
			RunTrace:     run,
			Mix:          svc.DefaultMix(),
			HostCapacity: 1,
			Seed:         vmSeed,
		}
		if cfg.Interference {
			spec.Interference = schedules[host]
		}

		switch cfg.Kind {
		case KindFlashCrowd:
			// The spike is fleet-correlated — same window, same factor
			// for every tenant — which is what makes a flash crowd
			// harder than private noise: the whole repository faces
			// unforeseen load at once.
			for h := spikeStart; h < spikeStart+spikeLen && h < len(run.Loads); h++ {
				run.Loads[h] *= spikeFactor
			}
		case KindChurn:
			kr := rng.New(rng.Derive(vmSeed, kindStream))
			switch i % 3 {
			case 1: // spot instance arriving mid-run
				spec.JoinAt = time.Duration(1+kr.Intn(runHours/2)) * time.Hour
			case 2: // preempted before the window ends
				spec.LeaveAt = time.Duration(runHours/2+kr.Intn(runHours/2-1)) * time.Hour
			}
		case KindWorkloadShift:
			kr := rng.New(rng.Derive(vmSeed, kindStream))
			shift := time.Duration(4+kr.Intn(runHours-8)) * time.Hour
			before, after := spec.Mix, altMix(svc)
			spec.MixShifts = []MixShift{{At: shift, Mix: after}}
			spec.MixFn = func(now time.Duration) services.Mix {
				if now < shift {
					return before
				}
				return after
			}
		case KindHardwareGen:
			spec.HostCapacity = hostCaps[host]
			if spec.HostCapacity < 1 {
				// schedules[host] was composed with the host's capacity
				// deficit above (even for interference-free fleets, where
				// the deficit is the whole schedule).
				spec.Interference = schedules[host]
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
