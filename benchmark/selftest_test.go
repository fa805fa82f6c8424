package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDeclaredMatchesBenchmarkJSON pins the metric and workload names
// in code to the ones BENCHMARK.json declares, units, directions and
// bounds included.
func TestDeclaredMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	inJSON := map[string]decl{}
	for _, m := range doc.EndToEnd {
		inJSON[m.Name] = decl{m.Name, m.Unit, true, m.Better, m.Bound}
	}
	for _, m := range doc.PerLayer {
		if _, dup := inJSON[m.Name]; dup {
			t.Errorf("BENCHMARK.json names %q twice", m.Name)
		}
		inJSON[m.Name] = decl{m.Name, m.Unit, false, m.Better, 0}
	}
	if len(inJSON) != len(declared) {
		t.Errorf("BENCHMARK.json declares %d metrics, the code %d", len(inJSON), len(declared))
	}
	seen := map[string]bool{}
	for _, d := range declared {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if got, ok := inJSON[d.name]; !ok {
			t.Errorf("metric %q is not in BENCHMARK.json", d.name)
		} else if got != d {
			t.Errorf("metric %q: BENCHMARK.json has %+v, the code %+v", d.name, got, d)
		}
	}
	setup, ok := inJSON["setup_s"]
	if !ok || !setup.e2e || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; got %+v", setup)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
}

// runToy runs every workload, traced, at toy size.
func runToy(t *testing.T, seed int64, expect *expected) (*record, error) {
	t.Helper()
	o := options{seed: seed, trace: true, spans: t.TempDir() + "/spans.json"}
	return runSetWith(o, seed, toySizes(), expect, t.Logf)
}

// TestToyRunEmitsEveryMetric runs all five workloads at toy size with
// the traced run on, at the recorded seed and at one nobody tuned
// against: every check passes, every declared metric is emitted exactly
// once with its unit by the workloads that own it, and the last line
// carries exactly the declared names.
func TestToyRunEmitsEveryMetric(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		expect, err := loadExpected(seed)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := runToy(t, seed, expect)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rec.Workloads) != len(workloads) {
			t.Fatalf("seed %d: %d workloads ran, want %d", seed, len(rec.Workloads), len(workloads))
		}
		emitted := map[string]bool{}
		for _, res := range rec.Workloads {
			inWorkload := map[string]bool{}
			for _, m := range res.Metrics {
				d, ok := declOf(m.Name)
				if !ok {
					t.Errorf("%s emits undeclared metric %q", res.Workload, m.Name)
				}
				if inWorkload[m.Name] {
					t.Errorf("%s emits %q twice", res.Workload, m.Name)
				}
				inWorkload[m.Name] = true
				if m.Unit == "" || m.Unit != d.unit {
					t.Errorf("%s: %q has unit %q, declared %q", res.Workload, m.Name, m.Unit, d.unit)
				}
				if m.N < 1 {
					t.Errorf("%s: %q has no samples", res.Workload, m.Name)
				}
				emitted[m.Name] = true
			}
			for _, d := range declared {
				if d.e2e && !inWorkload[d.name] {
					t.Errorf("%s does not emit end-to-end metric %q", res.Workload, d.name)
				}
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: %d attempted, %d failed", res.Workload, res.Attempted, res.Failed)
			}
			if len(res.Checks) == 0 {
				t.Errorf("%s passed no check", res.Workload)
			}
		}
		for _, d := range declared {
			if !emitted[d.name] {
				t.Errorf("seed %d: no workload emits %q", seed, d.name)
			}
		}
		// The harness line of one traced workload: every per-layer
		// metric by name, none of the end-to-end ones.
		one := *rec
		one.Workloads = rec.Workloads[:1]
		line := harnessResult(&one, true)
		for _, d := range declared {
			if _, ok := line.Metrics[d.name]; ok == d.e2e {
				t.Errorf("traced harness line: %q present=%v, end-to-end=%v", d.name, ok, d.e2e)
			}
		}
	}
}

// TestWrongExpectedHitCountFails proves check (b) can fail: the same
// toy run with one recorded hit count off by one must not pass.
func TestWrongExpectedHitCountFails(t *testing.T) {
	good, err := loadExpected(42)
	if err != nil || good == nil {
		t.Fatalf("no record for seed 42: %v", err)
	}
	want, ok := good.fleet(shapeLocal, toySizes().LocalVMs)
	if !ok {
		t.Fatal("expected.json has no toy-size record for fleet_local at seed 42")
	}
	bad := expected{Seed: 42, Fleet: []fleetExpect{{Workload: shapeLocal, VMs: want.VMs, Steps: want.Steps, Hits: want.Hits + 1, Misses: want.Misses}}}
	o := options{seed: 42, workload: shapeLocal}
	_, err = runSetWith(o, 42, toySizes(), &bad, t.Logf)
	if err == nil || !strings.Contains(err.Error(), "check failed: (b)") {
		t.Fatalf("a wrong expected hit count must fail check (b); got %v", err)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := strings.Join(normalizeArgs([]string{"--workload", "adapt", "--seed", "3", "--seconds", "10", "--trace", "1"}), " ")
	if want := "--workload adapt --seed 3 --seconds 10 -trace=1"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if got := strings.Join(normalizeArgs([]string{"-trace", "-seed", "3"}), " "); got != "-trace -seed 3" {
		t.Errorf("bare -trace must stay a boolean flag, got %q", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("got %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
