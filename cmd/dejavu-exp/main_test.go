package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "5", experiments.Options{Seed: 1, Days: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 5") {
		t.Errorf("output missing figure header:\n%s", out)
	}
	if strings.Contains(out, "Figure 6") {
		t.Error("single-figure run should not include other figures")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "42", experiments.Options{Seed: 1, Days: 2}); err == nil {
		t.Error("unknown figure should error")
	}
}

// TestRunScenariosMatchesGolden: the claims table from the command line
// at seed 42 is the experiments golden, whatever -days says.
func TestRunScenariosMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/experiments/testdata/scenarios_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "scenarios", experiments.Options{Seed: 42, Days: 7}); err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("dejavu-exp -figure scenarios drifted from the golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRunTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", experiments.Options{Seed: 1, Days: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("output missing table header")
	}
}
