// Command benchmark is the one benchmark of the whole system: it stands
// the real decision plane up in this process on loopback, drives it
// with five workloads — fleet → client → wire → dejavud → tier — prints
// every metric by name with its unit and spread, checks the outputs
// for correctness, and exits non-zero when a check fails.
//
//	bash benchmark/run.sh                          # all workloads, default pass counts
//	bash benchmark/run.sh -trace                   # plus the traced run and the decision budget
//	bash benchmark/run.sh -workload adapt -seed 7  # one workload, another seed
//	bash benchmark/run.sh -repeat 10               # run-to-run spread against the bounds
//
// The harness that gates later changes runs
// `--workload NAME --seed N --seconds S --trace 0|1` and reads the last
// line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	spans    string
	repeat   int
}

// normalizeArgs lets -trace be written both ways: as the boolean flag
// the README documents and as the `--trace 0|1` pair the gating harness
// passes (Go's flag package only takes a boolean's value after `=`).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if name := strings.TrimLeft(args[i], "-"); name == "trace" && args[i] != name && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 42, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "take passes until their timed windows add up to this long (0 = each workload's default pass count)")
	fs.BoolVar(&o.trace, "trace", false, "after the timed passes, run the traced pass and the decision budget")
	fs.StringVar(&o.out, "out", "", "write the run record (JSON) to this file")
	fs.StringVar(&o.spans, "spans", "", "write the traced run's span dump here (default .bench_build/spans-WORKLOAD.json)")
	fs.IntVar(&o.repeat, "repeat", 0, "run the set this many times on consecutive seeds and compare the run-to-run spread of every end-to-end metric with its bound")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if o.seconds < 0 || o.repeat < 0 {
		return o, fmt.Errorf("-seconds and -repeat must not be negative")
	}
	return o, nil
}

// record is the run record: where the numbers came from, next to them.
type record struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Callers    int       `json:"callers"`
	Link       string    `json:"link"`
	Sizes      sizes     `json:"sizes"`
	Workloads  []*result `json:"workloads"`
}

// commit reads the revision the binary was built from, when the build
// had one to stamp (a bare checkout has not).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runSet runs the selected workloads once at one seed, checked against
// that seed's record in expected.json.
func runSet(o options, seed int64, size sizes, logf func(string, ...any)) (*record, error) {
	expect, err := loadExpected(seed)
	if err != nil {
		return nil, err
	}
	return runSetWith(o, seed, size, expect, logf)
}

func runSetWith(o options, seed int64, size sizes, expect *expected, logf func(string, ...any)) (*record, error) {
	rec := &record{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(), Seed: seed, Seconds: o.seconds, Trace: o.trace, Callers: callers(),
		Link: "loopback (127.0.0.1), load generated from this process — not a real link", Sizes: size,
	}
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		base := env{seed: seed, seconds: o.seconds, size: size, callers: rec.Callers, expect: expect}
		if o.trace {
			base.spans = newSpanRing()
		}
		logf("%s: %s", w.name, w.why)
		res, err := runWorkload(w, base)
		if err != nil {
			return nil, err
		}
		if o.trace {
			path := o.spans
			if path == "" {
				path = ".bench_build/spans-" + w.name + ".json"
			}
			if err := base.spans.dump(path, w.name); err != nil {
				return nil, fmt.Errorf("%s: span dump: %w", w.name, err)
			}
			logf("%s: %d spans written to %s", w.name, base.spans.next, path)
		}
		rec.Workloads = append(rec.Workloads, res)
	}
	return rec, nil
}

// printRecord prints every metric by name with its unit and spread.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d callers=%d\n# %s\n",
		rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU, rec.Commit, rec.Seed, rec.Callers, rec.Link)
	for _, res := range rec.Workloads {
		fmt.Fprintf(w, "\n%s  (%.1f s wall, %d attempted, %d failed)\n", res.Workload, res.WallS, res.Attempted, res.Failed)
		fmt.Fprintf(w, "  %-30s %16s %-6s %5s  %s\n", "metric", "median", "unit", "n", "min / q1 / q3 / max")
		for _, m := range res.Metrics {
			mark := " "
			if m.E2E {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-30s %16.6g %-6s %5d  %.6g / %.6g / %.6g / %.6g\n", mark, m.Name, m.Median, m.Unit, m.N, m.Min, m.Q1, m.Q3, m.Max)
		}
		for _, c := range res.Checks {
			fmt.Fprintf(w, "  ok: %s\n", c)
		}
	}
	fmt.Fprintln(w, "\n* end-to-end (gated); the rest are per-layer")
}

// harnessLine is the last line of standard output.
type harnessLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]harnessValue `json:"metrics"`
}

type harnessValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// harnessResult builds the last line. For one workload it carries
// every end-to-end metric (untraced) or every per-layer metric (traced;
// 0 where the workload's path never enters the layer). For the whole
// set the keys are WORKLOAD/METRIC.
func harnessResult(rec *record, single bool) harnessLine {
	line := harnessLine{Correct: true, Metrics: map[string]harnessValue{}}
	for _, res := range rec.Workloads {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		medians := map[string]float64{}
		for _, m := range res.Metrics {
			medians[m.Name] = m.Median
		}
		for _, d := range declared {
			if d.e2e == rec.Trace {
				continue
			}
			key := d.name
			if !single {
				key = res.Workload + "/" + d.name
			}
			line.Metrics[key] = harnessValue{Value: medians[d.name], Unit: d.unit}
		}
	}
	return line
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...) }
	if o.repeat > 0 {
		return runRepeat(o, stdout, logf)
	}
	rec, err := runSet(o, o.seed, fullSizes(), logf)
	if err != nil {
		return err
	}
	printRecord(stdout, rec)
	if o.out != "" {
		if err := writeJSONFile(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(harnessResult(rec, o.workload != ""))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}
