package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// promLint is a strict Prometheus text-format (0.0.4) checker. It
// exists because the exposition used to be assembled with Go's %q —
// whose escaping (\t, é, octal) is not Prometheus label escaping
// — and nothing parsed the full output, so a template id with a quote
// produced silently unscrapable metrics. The linter enforces:
//
//   - every sample's metric has # HELP then # TYPE before it, each
//     exactly once, with a known type;
//   - samples of one metric family are contiguous (no interleaving);
//   - label syntax: valid label names, values quoted with only the
//     \\, \", and \n escapes;
//   - values parse as floats;
//   - histogram families expose cumulative non-decreasing _bucket
//     series ending in le="+Inf", plus _sum and _count, with _count
//     equal to the +Inf bucket.
func promLint(t *testing.T, text string) {
	t.Helper()
	help := map[string]int{}
	typ := map[string]string{}
	samplesSeen := map[string]bool{} // family -> any sample emitted
	closedFamilies := map[string]bool{}
	curFamily := ""
	type histState struct {
		lastCum   float64
		infCum    float64
		sawInf    bool
		count     float64
		sawCount  bool
		sawSum    bool
		labelsKey string
	}
	var hist *histState
	finishHist := func() {
		if hist == nil {
			return
		}
		if !hist.sawInf {
			t.Errorf("histogram %s series %q has no le=\"+Inf\" bucket", curFamily, hist.labelsKey)
		}
		if !hist.sawSum || !hist.sawCount {
			t.Errorf("histogram %s series %q missing _sum or _count", curFamily, hist.labelsKey)
		}
		if hist.sawCount && hist.sawInf && hist.count != hist.infCum {
			t.Errorf("histogram %s series %q: _count %g != +Inf bucket %g", curFamily, hist.labelsKey, hist.count, hist.infCum)
		}
		hist = nil
	}
	for ln, line := range strings.Split(text, "\n") {
		where := fmt.Sprintf("line %d: %q", ln+1, line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				t.Errorf("%s: malformed HELP", where)
				continue
			}
			if help[name]++; help[name] > 1 {
				t.Errorf("%s: duplicate HELP for %s", where, name)
			}
			if _, ok := typ[name]; ok {
				t.Errorf("%s: HELP for %s after its TYPE", where, name)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !validMetricName(fields[0]) {
				t.Errorf("%s: malformed TYPE", where)
				continue
			}
			name, mt := fields[0], fields[1]
			if mt != "counter" && mt != "gauge" && mt != "histogram" {
				t.Errorf("%s: unknown metric type %q", where, mt)
			}
			if help[name] == 0 {
				t.Errorf("%s: TYPE for %s before its HELP", where, name)
			}
			if _, dup := typ[name]; dup {
				t.Errorf("%s: duplicate TYPE for %s", where, name)
			}
			typ[name] = mt
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			t.Errorf("%s: %v", where, err)
			continue
		}
		family := name
		if t2, ok := typ[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")]; ok && t2 == "histogram" {
			family = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		}
		mt, ok := typ[family]
		if !ok {
			t.Errorf("%s: sample for %s without TYPE", where, family)
			continue
		}
		if family != curFamily {
			finishHist()
			if closedFamilies[family] {
				t.Errorf("%s: samples of %s are not contiguous", where, family)
			}
			if curFamily != "" {
				closedFamilies[curFamily] = true
			}
			curFamily = family
		}
		samplesSeen[family] = true
		if mt == "histogram" {
			le, rest := splitLe(labels)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == "" {
					t.Errorf("%s: histogram bucket without le label", where)
					break
				}
				if hist == nil || hist.labelsKey != rest {
					finishHist()
					hist = &histState{labelsKey: rest}
				}
				if value < hist.lastCum {
					t.Errorf("%s: histogram %s buckets not cumulative (%g after %g)", where, family, value, hist.lastCum)
				}
				hist.lastCum = value
				if le == "+Inf" {
					hist.sawInf = true
					hist.infCum = value
				}
			case strings.HasSuffix(name, "_sum"):
				if hist == nil || hist.labelsKey != rest {
					t.Errorf("%s: %s_sum before its buckets", where, family)
					break
				}
				hist.sawSum = true
			case strings.HasSuffix(name, "_count"):
				if hist == nil || hist.labelsKey != rest {
					t.Errorf("%s: %s_count before its buckets", where, family)
					break
				}
				hist.sawCount = true
				hist.count = value
			default:
				t.Errorf("%s: bare sample %s under histogram TYPE", where, name)
			}
		}
	}
	finishHist()
	for name := range typ {
		if !samplesSeen[name] {
			t.Errorf("metric %s declared but has no samples", name)
		}
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseSample splits `name{labels} value` (labels optional), checking
// label-name syntax, quoting, and the three legal escapes.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", "", 0, fmt.Errorf("unterminated label set")
		}
		labels = rest[brace+1 : end]
		rest = strings.TrimSpace(rest[end+1:])
		if err := lintLabels(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		if sp < 0 {
			return "", "", 0, fmt.Errorf("sample with no value")
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	v, perr := strconv.ParseFloat(rest, 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("unparseable value %q", rest)
	}
	return name, labels, v, nil
}

func lintLabels(labels string) error {
	i := 0
	for i < len(labels) {
		j := i
		for j < len(labels) && labels[j] != '=' {
			j++
		}
		lname := labels[i:j]
		if !validMetricName(lname) || strings.ContainsRune(lname, ':') {
			return fmt.Errorf("invalid label name %q", lname)
		}
		if j+1 >= len(labels) || labels[j+1] != '"' {
			return fmt.Errorf("label %s value not quoted", lname)
		}
		k := j + 2
		for {
			if k >= len(labels) {
				return fmt.Errorf("label %s value unterminated", lname)
			}
			if labels[k] == '\\' {
				if k+1 >= len(labels) {
					return fmt.Errorf("label %s ends mid-escape", lname)
				}
				switch labels[k+1] {
				case '\\', '"', 'n':
				default:
					return fmt.Errorf("label %s has illegal escape \\%c", lname, labels[k+1])
				}
				k += 2
				continue
			}
			if labels[k] == '"' {
				break
			}
			k++
		}
		i = k + 1
		if i < len(labels) {
			if labels[i] != ',' {
				return fmt.Errorf("label %s not followed by comma", lname)
			}
			i++
		}
	}
	return nil
}

// splitLe removes the le label from a histogram bucket's label set,
// returning its value and the remaining labels (the series key).
func splitLe(labels string) (le, rest string) {
	var parts []string
	for _, p := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(p, "le="); ok {
			le = strings.Trim(v, `"`)
			continue
		}
		if p != "" {
			parts = append(parts, p)
		}
	}
	return le, strings.Join(parts, ",")
}

// TestMetricsTextFormatLint serves a multi-template daemon — one
// template id deliberately needing label escaping — through some
// decisions on both HTTP encodings, then lints the entire /metrics
// output. This is the regression gate for the %q-escaping bug: %q
// would render the quote in the template id as Go syntax, not
// Prometheus syntax, and double the HELP/TYPE headers never showed up
// because nothing read the whole document.
func TestMetricsTextFormatLint(t *testing.T) {
	repoA := testRepository(t, 12)
	repoB := testRepository(t, 21)
	hA, err := core.NewHandle(repoA)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := core.NewHandle(repoB)
	if err != nil {
		t.Fatal(err)
	}
	awkward := `cassandra "eu\west"` + "\n2"
	s, err := New(Config{Templates: map[string]*core.Handle{
		"cassandra": hA,
		awkward:     hB,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	vals := foreseenSignature(t, repoA, 13, 300)
	// The awkward template id rides the binary codec (length-prefixed
	// bytes, no string escaping to trip over). Each template is served
	// once over HTTP and once through the TCP plane's histogram slot, so
	// both transport series exist.
	valsB := foreseenSignature(t, repoB, 13, 300)
	for tpl, tv := range map[string][]float64{"cassandra": vals, awkward: valsB} {
		if code, body, _ := decision(t, ts.URL+"/v1/lookup", tpl, 0, tv); code != 200 {
			t.Fatalf("lookup on %q: %d %s", tpl, code, body)
		}
		sc := s.pool.Get().(*scratch)
		var err error
		if sc.body, err = batch(tpl, 0, tv).AppendBinary(sc.body[:0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.decide(sc, true, transportTCP); err != nil {
			t.Fatalf("tcp-slot decide on %q: %v", tpl, err)
		}
		s.pool.Put(sc)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	promLint(t, text)
	if !strings.Contains(text, `template="cassandra \"eu\\west\"\n2"`) {
		t.Errorf("escaped template label missing from exposition:\n%s", grepLines(text, "dejavud_repo_version"))
	}
	for _, tr := range []string{"binary", "tcp"} {
		if !strings.Contains(text, `dejavud_decide_latency_seconds_bucket{template="cassandra",transport="`+tr+`"`) {
			t.Errorf("per-template decide latency histogram missing %s transport series", tr)
		}
	}
	if strings.Contains(text, `transport="json"`) {
		t.Error(`the retired transport="json" series is still exposed`)
	}
}

// TestPromLintRejectsMalformed pins that the linter itself catches
// the bug classes it exists for — otherwise a green lint proves
// nothing.
func TestPromLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"sample without TYPE", "foo_total 1\n"},
		{"duplicate HELP", "# HELP x a\n# HELP x b\n# TYPE x counter\nx 1\n"},
		{"duplicate TYPE", "# HELP x a\n# TYPE x counter\n# TYPE x counter\nx 1\n"},
		{"unknown type", "# HELP x a\n# TYPE x summary2\nx 1\n"},
		{"go %q escape", "# HELP x a\n# TYPE x gauge\nx{template=\"a\\tb\"} 1\n"},
		{"bad value", "# HELP x a\n# TYPE x gauge\nx one\n"},
		{"interleaved families", "# HELP x a\n# TYPE x gauge\n# HELP y b\n# TYPE y gauge\nx 1\ny 1\nx 2\n"},
		{"histogram without inf", "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"non-cumulative buckets", "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := &testing.T{}
			promLint(probe, tc.doc)
			if !probe.Failed() {
				t.Errorf("linter accepted malformed doc:\n%s", tc.doc)
			}
		})
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
