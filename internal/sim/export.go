package sim

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

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
