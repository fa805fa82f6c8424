package sim

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/services"
)

func TestWriteRecordsCSV(t *testing.T) {
	svc := services.NewCassandra()
	res, err := Run(Config{
		Service:    svc,
		Trace:      flatTrace(100, 1),
		Controller: &fixedController{},
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.writeRecordsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 61 { // header + 60 minutes
		t.Fatalf("rows=%d want 61", len(rows))
	}
	if rows[0][0] != "minute" || rows[0][6] != "instance_type" {
		t.Errorf("header=%v", rows[0])
	}
	if rows[1][1] != "100.00" {
		t.Errorf("clients column=%q want 100.00", rows[1][1])
	}
	if rows[1][6] != "large" {
		t.Errorf("type column=%q want large", rows[1][6])
	}
}

func TestResultSummary(t *testing.T) {
	svc := services.NewCassandra()
	res, err := Run(Config{
		Service:    svc,
		Trace:      flatTrace(100, 1),
		Controller: &fixedController{},
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.summary()
	for _, want := range []string{"cassandra", "fixed", "cost $", "violations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

// writeRecordsCSV serializes a run's per-step records for external
// plotting (the figures in the paper are line plots over exactly these
// columns).
func (r *Result) writeRecordsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"minute", "clients", "latency_ms", "qos_pct", "utilization",
		"instances", "instance_type", "in_transition", "slo_violated", "interference",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, rec := range r.Records {
		row := []string{
			strconv.Itoa(i),
			strconv.FormatFloat(rec.Clients, 'f', 2, 64),
			strconv.FormatFloat(rec.LatencyMs, 'f', 3, 64),
			strconv.FormatFloat(rec.QoSPercent, 'f', 2, 64),
			strconv.FormatFloat(rec.Utilization, 'f', 4, 64),
			strconv.Itoa(int(rec.Alloc.Count)),
			rec.Alloc.Type.Instance().Name,
			strconv.FormatBool(rec.InTransition),
			strconv.FormatBool(rec.SLOViolated),
			strconv.FormatFloat(rec.Interference, 'f', 3, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// summary renders the headline statistics of a run as one line.
func (r *Result) summary() string {
	return fmt.Sprintf("%s/%s: cost $%.2f, violations %.1f%%, %d decisions, mean adaptation %v",
		r.Service, r.Controller, r.TotalCost, 100*r.SLOViolationFraction,
		r.Decisions, r.MeanAdaptation())
}
