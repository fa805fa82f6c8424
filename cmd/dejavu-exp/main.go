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

func run(w io.Writer, figure string, opts experiments.Options) error {
	matched := false
	for _, e := range experiments.Figures {
		if figure != "all" && figure != e.Name {
			continue
		}
		matched = true
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", e.Name, err)
		}
		res.Render(w)
		fmt.Fprintln(w)
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", figure)
	}
	return nil
}
