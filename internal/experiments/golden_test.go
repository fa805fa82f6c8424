package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The fixed-seed golden tests pin every deterministic dejavu-exp output
// (each entry of Figures with a Golden file) byte-for-byte at seed 42
// over 3 days. The hot-path work (dense metric vectors, span stepping,
// lockstep blocks, warm kits) is required to be a pure performance
// change — any drift in these outputs means an optimization altered
// simulation arithmetic or RNG consumption. The proxy figure times
// loopback round trips on the wall clock (overhead.go), so it has no
// golden and only its shape is tested. Regenerate the goldens with
// `go run ./internal/experiments/goldengen` only for intentional
// behaviour changes.

func goldenCompare(t *testing.T, name string) {
	t.Helper()
	for _, f := range Figures {
		if f.Name != name {
			continue
		}
		path := filepath.Join("testdata", f.Golden)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden %s: %v (regenerate with go run ./internal/experiments/goldengen)", path, err)
		}
		r, err := f.Run(Options{Seed: 42, Days: 3})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		r.Render(&got)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", f.Golden, got.String(), want)
		}
		return
	}
	t.Fatalf("no figure %q", name)
}

func TestFigure6GoldenFixedSeed(t *testing.T) { goldenCompare(t, "6") }

func TestFigure8GoldenFixedSeed(t *testing.T) { goldenCompare(t, "8") }

// TestScenarioSweepGoldenFixedSeed pins the full adversarial claims
// table — baseline plus every scenario kind, absolutes and deltas —
// at seed 42. The sweep runs with Workers=1, so any drift here means
// scenario generation or fleet arithmetic changed, not goroutine
// scheduling.
func TestScenarioSweepGoldenFixedSeed(t *testing.T) { goldenCompare(t, "scenarios") }

// TestGoldenFixedSeed pins every output with a golden, the three above
// included.
func TestGoldenFixedSeed(t *testing.T) {
	for _, f := range Figures {
		if f.Golden != "" {
			t.Run(f.Name, func(t *testing.T) { goldenCompare(t, f.Name) })
		}
	}
}
