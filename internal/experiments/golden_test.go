package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The fixed-seed golden tests pin the rendered Figure 6 and Figure 8
// outputs byte-for-byte. The hot-path work (dense metric vectors,
// memoized solvers, the zero-copy step engine) is required to be a
// pure performance change — any drift in these outputs means an
// optimization altered simulation arithmetic or RNG consumption.
// Regenerate the goldens with `go run ./internal/experiments/goldengen`
// only for intentional behaviour changes.

func goldenCompare(t *testing.T, name string, render func(*bytes.Buffer)) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (regenerate with go run ./internal/experiments/goldengen)", path, err)
	}
	var got bytes.Buffer
	render(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", name, got.String(), want)
	}
}

func TestFigure6GoldenFixedSeed(t *testing.T) {
	r, err := Figure6(Options{Seed: 42, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "figure6_seed42_days3.golden", func(b *bytes.Buffer) { r.Render(b) })
}

func TestFigure8GoldenFixedSeed(t *testing.T) {
	r, err := Figure8(Options{Seed: 42, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "figure8_seed42_days3.golden", func(b *bytes.Buffer) { r.Render(b) })
}

// TestScenarioSweepGoldenFixedSeed pins the full adversarial claims
// table — baseline plus every scenario kind, absolutes and deltas —
// byte-for-byte at seed 42. The sweep runs with Workers=1, so any
// drift here means scenario generation or fleet arithmetic changed,
// not goroutine scheduling.
func TestScenarioSweepGoldenFixedSeed(t *testing.T) {
	r, err := ScenarioSweep(42)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "scenarios_seed42.golden", func(b *bytes.Buffer) { r.Render(b) })
}
