// Command goldengen regenerates the fixed-seed golden outputs for the
// figure-stability test. Run from the repo root:
//
//	go run ./internal/experiments/goldengen
//
// Only regenerate when an intentional behaviour change alters the
// figures; performance-only changes must keep the outputs byte-equal.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	dir := "internal/experiments/testdata"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	opts := experiments.Options{Seed: 42, Days: 3}
	f6, err := experiments.Figure6(opts)
	if err != nil {
		panic(err)
	}
	out6, err := os.Create(filepath.Join(dir, "figure6_seed42_days3.golden"))
	if err != nil {
		panic(err)
	}
	f6.Render(out6)
	out6.Close()
	f8, err := experiments.Figure8(opts)
	if err != nil {
		panic(err)
	}
	out8, err := os.Create(filepath.Join(dir, "figure8_seed42_days3.golden"))
	if err != nil {
		panic(err)
	}
	f8.Render(out8)
	out8.Close()
	sweep, err := experiments.ScenarioSweep(42)
	if err != nil {
		panic(err)
	}
	outS, err := os.Create(filepath.Join(dir, "scenarios_seed42.golden"))
	if err != nil {
		panic(err)
	}
	sweep.Render(outS)
	outS.Close()
	fmt.Println("golden files written to", dir)
}
