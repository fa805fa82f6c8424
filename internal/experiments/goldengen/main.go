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
	for _, f := range experiments.Figures {
		if f.Golden == "" {
			continue
		}
		res, err := f.Run(experiments.Options{Seed: 42, Days: 3})
		if err != nil {
			panic(err)
		}
		out, err := os.Create(filepath.Join(dir, f.Golden))
		if err != nil {
			panic(err)
		}
		res.Render(out)
		if err := out.Close(); err != nil {
			panic(err)
		}
	}
	fmt.Println("golden files written to", dir)
}
