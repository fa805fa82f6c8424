package cloud

import (
	"math"
	"testing"
	"time"
)

func TestCatalogAndLookup(t *testing.T) {
	cat := Catalog()
	if len(cat) != 3 {
		t.Fatalf("catalog size=%d want 3", len(cat))
	}
	for i := 1; i < len(cat); i++ {
		if cat[i].Capacity <= cat[i-1].Capacity {
			t.Errorf("catalog not in ascending capacity order at %d", i)
		}
	}
	lt, err := TypeByName("large")
	if err != nil || lt.PricePerHour != 0.34 {
		t.Errorf("large lookup: %+v err=%v (paper price $0.34/h)", lt, err)
	}
	xl, err := TypeByName("xlarge")
	if err != nil || xl.PricePerHour != 0.68 {
		t.Errorf("xlarge lookup: %+v err=%v (paper price $0.68/h)", xl, err)
	}
	if _, err := TypeByName("gpu"); err == nil {
		t.Error("unknown type should error")
	}
}

func TestAllocationAccessors(t *testing.T) {
	a := Allocation{Type: Large, Count: 4}
	if a.Capacity() != 4 {
		t.Errorf("Capacity=%v want 4", a.Capacity())
	}
	if math.Abs(a.HourlyCost()-1.36) > 1e-9 {
		t.Errorf("HourlyCost=%v want 1.36", a.HourlyCost())
	}
	if math.Abs(a.CostFor(30*time.Minute)-0.68) > 1e-9 {
		t.Errorf("CostFor(30m)=%v want 0.68", a.CostFor(30*time.Minute))
	}
	if a.String() != "4 x large" {
		t.Errorf("String=%q", a.String())
	}
	b := Allocation{Type: Large, Count: 4}
	if !a.Equal(b) {
		t.Error("equal allocations not Equal")
	}
	if a.Equal(Allocation{Type: XLarge, Count: 4}) {
		t.Error("different types should not be Equal")
	}
	if a.Equal(Allocation{Type: Large, Count: 5}) {
		t.Error("different counts should not be Equal")
	}
}

func TestAllocationValidate(t *testing.T) {
	if err := (Allocation{Type: Large, Count: 0}).Validate(); err == nil {
		t.Error("zero count should fail")
	}
	if err := (Allocation{Count: 3}).Validate(); err == nil {
		t.Error("missing type should fail")
	}
	if err := (Allocation{Type: Large, Count: 1}).Validate(); err != nil {
		t.Errorf("valid allocation: %v", err)
	}
}

func TestXLargeIsTwiceLarge(t *testing.T) {
	// The scale-up experiments rely on xlarge = 2x large in both
	// capacity and price.
	if XLarge.Capacity != 2*Large.Capacity {
		t.Errorf("xlarge capacity %v != 2x large %v", XLarge.Capacity, Large.Capacity)
	}
	if math.Abs(XLarge.PricePerHour-2*Large.PricePerHour) > 1e-9 {
		t.Errorf("xlarge price %v != 2x large %v", XLarge.PricePerHour, Large.PricePerHour)
	}
}

func TestDeploymentWarmup(t *testing.T) {
	d, err := NewDeployment(Allocation{Type: Large, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(time.Minute, Allocation{Type: Large, Count: 6}); err != nil {
		t.Fatal(err)
	}
	// Before warm-up completes the old allocation serves.
	active, target, inTransition := d.Status(time.Minute + 10*time.Second)
	if active.Count != 2 {
		t.Errorf("during warmup count=%d want 2", active.Count)
	}
	if !inTransition {
		t.Error("should be in transition")
	}
	if target.Count != 6 {
		t.Errorf("target count=%d want 6", target.Count)
	}
	// After warm-up the new allocation serves.
	after := time.Minute + Large.WarmupDelay + time.Second
	active, _, inTransition = d.Status(after)
	if active.Count != 6 {
		t.Errorf("after warmup count=%d want 6", active.Count)
	}
	if inTransition {
		t.Error("transition should be over")
	}
}

func TestDeploymentApplySameIsNoop(t *testing.T) {
	d, _ := NewDeployment(Allocation{Type: Large, Count: 2})
	if err := d.Apply(time.Minute, Allocation{Type: Large, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if d.hasPending {
		t.Error("no-op apply left a change pending")
	}
	if _, _, inTransition := d.Status(time.Minute); inTransition {
		t.Error("no-op apply should not start a transition")
	}
}

func TestDeploymentApplyInvalid(t *testing.T) {
	d, _ := NewDeployment(Allocation{Type: Large, Count: 2})
	if err := d.Apply(0, Allocation{Type: Large, Count: 0}); err == nil {
		t.Error("invalid allocation should error")
	}
}

func TestNewDeploymentInvalid(t *testing.T) {
	if _, err := NewDeployment(Allocation{}); err == nil {
		t.Error("invalid initial allocation should error")
	}
}

func TestDeploymentBilling(t *testing.T) {
	d, _ := NewDeployment(Allocation{Type: Large, Count: 2})
	// 2 large for 1 hour = $0.68.
	if got := d.Cost(time.Hour); math.Abs(got-0.68) > 1e-9 {
		t.Errorf("Cost(1h)=%v want 0.68", got)
	}
	// Scale to 4 large at t=1h; warm-up 30s billed at old rate, then
	// new rate. Old: 1h + 30s at 0.68/h; new: remainder at 1.36/h.
	if err := d.Apply(time.Hour, Allocation{Type: Large, Count: 4}); err != nil {
		t.Fatal(err)
	}
	at2h := d.Cost(2 * time.Hour)
	oldPart := 0.68 * (1 + 30.0/3600)
	newPart := 1.36 * (3600 - 30.0) / 3600
	want := oldPart + newPart
	if math.Abs(at2h-want) > 1e-6 {
		t.Errorf("Cost(2h)=%v want %v", at2h, want)
	}
	// Cost is monotone.
	if d.Cost(3*time.Hour) <= at2h {
		t.Error("cost must grow over time")
	}
}

func TestDeploymentCostIdempotentQueries(t *testing.T) {
	d, _ := NewDeployment(Allocation{Type: Large, Count: 1})
	c1 := d.Cost(time.Hour)
	c2 := d.Cost(time.Hour)
	if c1 != c2 {
		t.Errorf("repeated Cost at same time differ: %v vs %v", c1, c2)
	}
}

func TestDeploymentScaleUp(t *testing.T) {
	// Vertical scaling: same count, bigger type.
	d, _ := NewDeployment(Allocation{Type: Large, Count: 5})
	if err := d.Apply(0, Allocation{Type: XLarge, Count: 5}); err != nil {
		t.Fatal(err)
	}
	after := XLarge.WarmupDelay + time.Second
	if active, _, _ := d.Status(after); active.Capacity() != 10 {
		t.Errorf("capacity after scale-up=%v want 10", active.Capacity())
	}
}
