package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestRunControllers(t *testing.T) {
	for _, ctl := range []string{"dejavu", "autopilot", "rightscale", "fixedmax"} {
		ctl := ctl
		t.Run(ctl, func(t *testing.T) {
			if err := run(io.Discard, "messenger", "", ctl, 2, 1, 3, false); err != nil {
				t.Fatalf("%s: %v", ctl, err)
			}
		})
	}
}

func TestRunWithInterference(t *testing.T) {
	if err := run(io.Discard, "hotmail", "", "dejavu", 2, 1, 15, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.csv")
	rec := &trace.Samples{Name: "cluster"}
	for h := 0; h <= 72; h++ {
		rec.Points = append(rec.Points, trace.Sample{
			At:   time.Duration(h) * time.Hour,
			Load: 100 + 50*float64(h%24)/23,
		})
	}
	writeRecording(t, path, rec.Points)

	var out bytes.Buffer
	if err := run(&out, "messenger", path, "dejavu", 3, 1, 3, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replay: 73 recorded points") {
		t.Errorf("report missing replay banner:\n%s", out.String())
	}

	// A recording shorter than two whole days cannot host a learning
	// day plus an evaluated day.
	short := filepath.Join(dir, "short.csv")
	writeRecording(t, short, rec.Points[:30])
	if err := run(io.Discard, "messenger", short, "dejavu", 7, 1, 3, false); err == nil {
		t.Error("sub-2-day replay recording should error")
	}
}

// writeRecording writes points as the "offset_hours,load" CSV that
// -replay reads, floats in shortest round-trip form.
func writeRecording(t *testing.T, path string, points []trace.Sample) {
	t.Helper()
	var b strings.Builder
	b.WriteString("offset_hours,load\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%g,%g\n", p.At.Hours(), p.Load)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunFleet(t *testing.T) {
	var out bytes.Buffer
	if err := runFleet(&out, 4, 2, 2, 1, "baseline", false, false, "", ""); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"fleet: 4 VMs", "cassandra", "repo hit-rate", "total  $"} {
		if !strings.Contains(report, want) {
			t.Errorf("fleet report missing %q:\n%s", want, report)
		}
	}
}

func TestRunFleetScenario(t *testing.T) {
	var out bytes.Buffer
	if err := runFleet(&out, 4, 2, 2, 1, "flash-crowd", false, false, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fleet scenario: flash-crowd") {
		t.Errorf("fleet report missing scenario banner:\n%s", out.String())
	}
	if err := runFleet(io.Discard, 4, 2, 2, 1, "nope", false, false, "", ""); err == nil {
		t.Error("unknown scenario kind should error")
	}
}

func TestRunFleetHeteroInterference(t *testing.T) {
	var out bytes.Buffer
	if err := runFleet(&out, 5, 0, 2, 1, "baseline", true, true, "", ""); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, svc := range []string{"cassandra", "specweb"} {
		if !strings.Contains(report, svc) {
			t.Errorf("heterogeneous fleet report missing %q:\n%s", svc, report)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(io.Discard, "nope", "", "dejavu", 2, 1, 3, false); err == nil {
		t.Error("unknown trace should error")
	}
	if err := run(io.Discard, "messenger", "", "nope", 2, 1, 3, false); err == nil {
		t.Error("unknown controller should error")
	}
	if err := run(io.Discard, "messenger", "/nonexistent/replay.csv", "dejavu", 2, 1, 3, false); err == nil {
		t.Error("missing replay file should error")
	}
}
