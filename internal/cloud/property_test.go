package cloud

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestBillingAdditiveProperty: querying the bill at t1 and then t2
// must equal querying at t2 directly — accrual is path-independent.
func TestBillingAdditiveProperty(t *testing.T) {
	f := func(aCount, bCount uint8, t1Min, t2Min uint16) bool {
		ca := int(aCount%9) + 1
		cb := int(bCount%9) + 1
		tm1 := time.Duration(t1Min%600) * time.Minute
		tm2 := tm1 + time.Duration(t2Min%600)*time.Minute

		mk := func() *Deployment {
			d, err := NewDeployment(Allocation{Type: Large, Count: ca})
			if err != nil {
				return nil
			}
			_ = d.Apply(tm1/2, Allocation{Type: Large, Count: cb})
			return d
		}
		stepwise := mk()
		direct := mk()
		if stepwise == nil || direct == nil {
			return false
		}
		_ = stepwise.Cost(tm1) // intermediate query
		c1 := stepwise.Cost(tm2)
		c2 := direct.Cost(tm2)
		return math.Abs(c1-c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCostMonotoneProperty: the bill never shrinks over time.
func TestCostMonotoneProperty(t *testing.T) {
	f := func(count uint8, steps uint8) bool {
		d, err := NewDeployment(Allocation{Type: Large, Count: int(count%9) + 1})
		if err != nil {
			return false
		}
		prev := 0.0
		for i := 0; i <= int(steps%40); i++ {
			c := d.Cost(time.Duration(i) * 7 * time.Minute)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCapacityScalesWithCountProperty: capacity and hourly cost are
// linear in the instance count for a fixed type.
func TestCapacityScalesWithCountProperty(t *testing.T) {
	f := func(count uint8) bool {
		n := int(count%20) + 1
		a1 := Allocation{Type: XLarge, Count: 1}
		an := Allocation{Type: XLarge, Count: n}
		capOK := math.Abs(an.Capacity()-float64(n)*a1.Capacity()) < 1e-9
		costOK := math.Abs(an.HourlyCost()-float64(n)*a1.HourlyCost()) < 1e-9
		return capOK && costOK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
