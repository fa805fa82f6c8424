package main

import (
	"fmt"
	"io"
)

// runRepeat is the tool the acceptance rule is checked with: it runs
// the selected workloads o.repeat times, each in fresh set-ups on its
// own seed, and prints for every end-to-end metric and workload the
// run-to-run spread of the runs' medians — the interquartile distance
// as a share of their median — against the metric's bound. It fails
// when a spread exceeds its bound. setup_s is printed but not gated on
// its spread (the acceptance rule gates its median only).
func runRepeat(o options, stdout io.Writer, logf func(string, ...any)) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var order []key
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		logf("repeat %d of %d, seed %d", i+1, o.repeat, seed)
		rec, err := runSet(o, seed, fullSizes(), logf)
		if err != nil {
			return err
		}
		for _, res := range rec.Workloads {
			for _, m := range res.Metrics {
				if !m.E2E {
					continue
				}
				k := key{res.Workload, m.Name}
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], m.Median)
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-10s %14s %8s %6s  %s\n", "workload", "metric", "median", "spread", "bound", "runs")
	exceeded := 0
	for _, k := range order {
		d, _ := declOf(k.metric)
		spread := relSpread(values[k])
		verdict := "ok"
		switch {
		case k.metric == "setup_s":
			verdict = "not gated on spread"
		case spread > d.bound:
			verdict = "EXCEEDS"
			exceeded++
		}
		fmt.Fprintf(stdout, "%-14s %-10s %14.6g %8.4f %6.2f  %d  %s\n", k.workload, k.metric, median(values[k]), spread, d.bound, len(values[k]), verdict)
	}
	if exceeded > 0 {
		return fmt.Errorf("%d end-to-end metric × workload spreads exceed their bound", exceeded)
	}
	return nil
}
