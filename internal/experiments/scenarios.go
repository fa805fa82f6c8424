package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// The adversarial claims harness turns each scenario kind of
// internal/sim into a measured, regression-gated claim: the same fleet
// is run unperturbed (baseline) and once per adversarial kind, and the
// deltas in repository hit rate, SLO-violation rate, and fleet bill
// are the claim. One variable changes per row — the scenario kind —
// so a drifting delta localizes to the perturbation that caused it.

// A claims sweep's fleet: scenarioVMs VMs per scenario, evaluated over
// scenarioDays run days.
const scenarioVMs, scenarioDays = 8, 1

// ScenarioClaim is one row of the harness: a scenario kind's absolute
// metrics and its deltas against the non-adversarial baseline.
type ScenarioClaim struct {
	// Kind is the scenario kind name (sim.ScenarioKind.String()).
	Kind string
	// HitRate is the fleet-wide repository hit rate.
	HitRate float64
	// SLOViolationFraction is the mean per-VM violation fraction.
	SLOViolationFraction float64
	// CostUSD is the fleet bill (cloud.FleetBill total).
	CostUSD float64
	// HitRateDelta and SLODelta are differences vs baseline (same
	// units as the absolutes; positive = higher under adversity).
	HitRateDelta, SLODelta float64
	// CostDeltaPct is the bill change vs baseline in percent.
	CostDeltaPct float64
}

// ScenarioSweepResult is the full sweep: the baseline row plus one
// claim per adversarial kind, in sim.AdversarialKinds order.
type ScenarioSweepResult struct {
	Seed      int64
	VMs, Days int
	Baseline  ScenarioClaim
	Claims    []ScenarioClaim
}

// runScenarioKind generates and runs one fleet scenario. Workers is
// pinned to 1: sequential stepping makes every scenario — including
// ones whose runtime lookups could insert repository entries in
// VM-visit order — bit-deterministic, which is what lets the sweep be
// golden-pinned and CI-gated. The claims read only aggregates, so the
// VMs keep no step records.
func runScenarioKind(seed int64, kind sim.ScenarioKind) (*fleet.Result, error) {
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:  rand.New(rand.NewSource(seed)),
		Kind: kind,
		VMs:  scenarioVMs,
		Days: scenarioDays,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s scenario: %w", kind, err)
	}
	res, err := fleet.Run(fleet.Config{Specs: specs, Workers: 1, DiscardRecords: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s fleet: %w", kind, err)
	}
	return res, nil
}

func claimFrom(kind sim.ScenarioKind, res *fleet.Result) ScenarioClaim {
	return ScenarioClaim{
		Kind:                 kind.String(),
		HitRate:              res.HitRate(),
		SLOViolationFraction: res.MeanSLOViolationFraction(),
		CostUSD:              res.TotalCost(),
	}
}

// ScenarioSweep runs the baseline fleet and every adversarial kind at
// the same seed and fleet shape, and reports per-kind deltas. Equal
// seeds give bit-identical sweeps.
func ScenarioSweep(seed int64) (*ScenarioSweepResult, error) {
	baseRes, err := runScenarioKind(seed, sim.KindBaseline)
	if err != nil {
		return nil, err
	}
	out := &ScenarioSweepResult{
		Seed:     seed,
		VMs:      scenarioVMs,
		Days:     scenarioDays,
		Baseline: claimFrom(sim.KindBaseline, baseRes),
	}
	for _, kind := range sim.AdversarialKinds() {
		res, err := runScenarioKind(seed, kind)
		if err != nil {
			return nil, err
		}
		c := claimFrom(kind, res)
		c.HitRateDelta = c.HitRate - out.Baseline.HitRate
		c.SLODelta = c.SLOViolationFraction - out.Baseline.SLOViolationFraction
		if out.Baseline.CostUSD > 0 {
			c.CostDeltaPct = 100 * (c.CostUSD/out.Baseline.CostUSD - 1)
		}
		out.Claims = append(out.Claims, c)
	}
	return out, nil
}

// Render writes the sweep as a fixed-width table (golden-pinned).
func (r *ScenarioSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "=== Adversarial scenario claims (%d VMs, %d run day(s), seed %d) ===\n", r.VMs, r.Days, r.Seed)
	fmt.Fprintf(w, "%-16s %9s %9s %11s %9s %9s %9s\n",
		"scenario", "hit-rate", "slo-viol", "cost", "d-hit", "d-slo", "d-cost%")
	row := func(c ScenarioClaim, baseline bool) {
		fmt.Fprintf(w, "%-16s %9.4f %9.4f %11.2f", c.Kind, c.HitRate, c.SLOViolationFraction, c.CostUSD)
		if baseline {
			fmt.Fprintf(w, " %9s %9s %9s\n", "-", "-", "-")
			return
		}
		fmt.Fprintf(w, " %+9.4f %+9.4f %+9.2f\n", c.HitRateDelta, c.SLODelta, c.CostDeltaPct)
	}
	row(r.Baseline, true)
	for _, c := range r.Claims {
		row(c, false)
	}
}
