package cloud

import (
	"fmt"
	"io"
	"time"
)

// BillItem is one line of an itemized bill: an allocation held for a
// period.
type BillItem struct {
	// From and To delimit the period (offsets from the deployment
	// start).
	From, To time.Duration
	// Allocation is what was provisioned (and billed) in the period.
	Allocation Allocation
	// Cost is the line total in USD.
	Cost float64
}

// Bill is an itemized record of a deployment's spending, mirroring a
// cloud provider's usage report.
type Bill struct {
	Items []BillItem
}

// Total returns the bill total.
func (b *Bill) Total() float64 {
	sum := 0.0
	for _, it := range b.Items {
		sum += it.Cost
	}
	return sum
}

// write renders the bill as a usage report.
func (b *Bill) write(w io.Writer) error {
	for _, it := range b.Items {
		if _, err := fmt.Fprintf(w, "%10s - %10s  %-12s $%8.4f\n",
			it.From, it.To, it.Allocation, it.Cost); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%35s $%8.4f\n", "total", b.Total())
	return err
}

// add appends a line, merging with the previous line when the
// allocation is unchanged and the periods are contiguous.
func (b *Bill) add(from, to time.Duration, a Allocation) {
	if to <= from {
		return
	}
	cost := a.CostFor(to - from)
	if n := len(b.Items); n > 0 {
		last := &b.Items[n-1]
		if last.To == from && last.Allocation.Equal(a) {
			last.To = to
			last.Cost += cost
			return
		}
	}
	b.Items = append(b.Items, BillItem{From: from, To: to, Allocation: a, Cost: cost})
}

// MeteredDeployment wraps a Deployment and keeps the itemized bill.
type MeteredDeployment struct {
	*Deployment
	bill      Bill
	lastPoint time.Duration
	lastAlloc Allocation
}

// newMeteredDeployment starts a metered deployment.
func newMeteredDeployment(initial Allocation) (*MeteredDeployment, error) {
	d, err := NewDeployment(initial)
	if err != nil {
		return nil, err
	}
	return &MeteredDeployment{Deployment: d, lastAlloc: initial}, nil
}

// meter brings the itemized bill up to the given time; call it
// periodically (e.g. once per simulation step) and before reading the
// bill.
func (m *MeteredDeployment) meter(now time.Duration) {
	if now <= m.lastPoint {
		return
	}
	active, _, _ := m.Status(now)
	if !active.Equal(m.lastAlloc) {
		// The switch happened somewhere inside (lastPoint, now];
		// bill the whole span at the allocation observed at each
		// end. Metering granularity bounds the error.
		mid := (m.lastPoint + now) / 2
		m.bill.add(m.lastPoint, mid, m.lastAlloc)
		m.bill.add(mid, now, active)
	} else {
		m.bill.add(m.lastPoint, now, active)
	}
	m.lastAlloc = active
	m.lastPoint = now
}
