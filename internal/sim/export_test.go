package sim

import (
	"bytes"
	"encoding/csv"
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
