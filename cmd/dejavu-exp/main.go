// Command dejavu-exp regenerates the paper's tables and figures on
// the simulated substrate and prints their data as text.
//
// Usage:
//
//	dejavu-exp [-seed N] [-days D] [-figure name]
//
// Figures: 1, 4, 5, table1, 6, 7, 8, 9, 10, 11, proxy, cost,
// ablations, typechange, drift, scenarios, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

type renderable interface{ Render(io.Writer) }

// wrap adapts a concrete experiment constructor to the renderable
// interface.
func wrap[T renderable](f func(experiments.Options) (T, error)) func(experiments.Options) (renderable, error) {
	return func(o experiments.Options) (renderable, error) { return f(o) }
}

func main() {
	seed := flag.Int64("seed", 42, "random seed (equal seeds reproduce results exactly)")
	days := flag.Int("days", 7, "trace days to simulate (learning day included)")
	figure := flag.String("figure", "all", "which figure/table to regenerate")
	flag.Parse()

	opts := experiments.Options{Seed: *seed, Days: *days}
	if err := run(os.Stdout, *figure, opts); err != nil {
		fmt.Fprintln(os.Stderr, "dejavu-exp:", err)
		os.Exit(1)
	}
}

// scenarios is the adversarial-scenario claims table at the sweep's own
// pinned shape (8 VMs, one run day), so -days does not apply to it.
func scenarios(o experiments.Options) (*experiments.ScenarioSweepResult, error) {
	return experiments.ScenarioSweep(o.Seed)
}

func run(w io.Writer, figure string, opts experiments.Options) error {
	type entry struct {
		name string
		run  func(experiments.Options) (renderable, error)
	}
	entries := []entry{
		{"1", wrap(experiments.Figure1)},
		{"4", wrap(experiments.Figure4)},
		{"5", wrap(experiments.Figure5)},
		{"table1", wrap(experiments.Table1)},
		{"6", wrap(experiments.Figure6)},
		{"7", wrap(experiments.Figure7)},
		{"8", wrap(experiments.Figure8)},
		{"9", wrap(experiments.Figure9)},
		{"10", wrap(experiments.Figure10)},
		{"11", wrap(experiments.Figure11)},
		{"proxy", wrap(experiments.ProxyOverhead)},
		{"cost", wrap(experiments.CostSummary)},
		{"ablations", wrap(experiments.Ablations)},
		{"typechange", wrap(experiments.TypeChange)},
		{"drift", wrap(experiments.Drift)},
		{"scenarios", wrap(scenarios)},
	}
	matched := false
	for _, e := range entries {
		if figure != "all" && figure != e.name {
			continue
		}
		matched = true
		res, err := e.run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", e.name, err)
		}
		res.Render(w)
		fmt.Fprintln(w)
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", figure)
	}
	return nil
}
