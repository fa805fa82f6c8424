package cloud

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestBillAddAndTotal(t *testing.T) {
	var b Bill
	a2 := Allocation{Type: Large, Count: 2}
	a4 := Allocation{Type: Large, Count: 4}
	b.add(0, time.Hour, a2)
	b.add(time.Hour, 2*time.Hour, a2) // contiguous, same allocation: merged
	b.add(2*time.Hour, 3*time.Hour, a4)
	if len(b.Items) != 2 {
		t.Fatalf("items=%d want 2 (merge expected)", len(b.Items))
	}
	if b.Items[0].To != 2*time.Hour {
		t.Errorf("merged item ends at %v want 2h", b.Items[0].To)
	}
	// 2 large x 2h = 1.36; 4 large x 1h = 1.36.
	if math.Abs(b.Total()-2.72) > 1e-9 {
		t.Errorf("Total=%v want 2.72", b.Total())
	}
	// Degenerate periods ignored.
	b.add(3*time.Hour, 3*time.Hour, a2)
	if len(b.Items) != 2 {
		t.Error("zero-length period should be ignored")
	}
}

func TestBillWrite(t *testing.T) {
	var b Bill
	b.add(0, time.Hour, Allocation{Type: Large, Count: 3})
	var buf bytes.Buffer
	if err := b.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 x large") || !strings.Contains(out, "total") {
		t.Errorf("bill output:\n%s", out)
	}
}

func TestMeteredDeployment(t *testing.T) {
	m, err := newMeteredDeployment(Allocation{Type: Large, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Meter every 10 minutes for 1 hour; scale at t=30m.
	for minute := 10; minute <= 30; minute += 10 {
		m.meter(time.Duration(minute) * time.Minute)
	}
	if err := m.Apply(30*time.Minute, Allocation{Type: Large, Count: 6}); err != nil {
		t.Fatal(err)
	}
	for minute := 40; minute <= 60; minute += 10 {
		m.meter(time.Duration(minute) * time.Minute)
	}
	bill := &m.bill
	if len(bill.Items) < 2 {
		t.Fatalf("expected at least 2 bill lines, got %+v", bill.Items)
	}
	// The itemized total must track the deployment's own accounting
	// within metering granularity: the switch may be misplaced by up
	// to one 10-minute metering interval, worth at most
	// (10/60)h x (6-2) x $0.34 ~= $0.23.
	if math.Abs(bill.Total()-m.Cost(time.Hour)) > 0.23 {
		t.Errorf("bill total %v vs deployment cost %v", bill.Total(), m.Cost(time.Hour))
	}
	// First line must be the 2-instance period.
	if bill.Items[0].Allocation.Count != 2 {
		t.Errorf("first line allocation=%v", bill.Items[0].Allocation)
	}
	last := bill.Items[len(bill.Items)-1]
	if last.Allocation.Count != 6 {
		t.Errorf("last line allocation=%v", last.Allocation)
	}
	// Re-metering the same instant is a no-op.
	before := len(bill.Items)
	m.meter(time.Hour)
	if len(m.bill.Items) != before {
		t.Error("re-metering same time should not add lines")
	}
}

func TestNewMeteredDeploymentInvalid(t *testing.T) {
	if _, err := newMeteredDeployment(Allocation{}); err == nil {
		t.Error("invalid allocation should error")
	}
}
