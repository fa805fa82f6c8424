package cloud

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFleetBillAggregation(t *testing.T) {
	b := NewFleetBill([]TenantUsage{
		{Tenant: "vm-a", Service: "cassandra", Cost: 10, InstanceHours: 5, Duration: time.Hour},
		{Tenant: "vm-b", Service: "specweb", Cost: 30, InstanceHours: 2, Duration: time.Hour},
		{Tenant: "vm-a", Service: "cassandra", Cost: 5, InstanceHours: 1, Duration: time.Hour},
	})

	if got := b.Total(); math.Abs(got-45) > 1e-12 {
		t.Errorf("Total = %v, want 45", got)
	}

	tenants := b.Tenants()
	if len(tenants) != 2 {
		t.Fatalf("Tenants = %+v, want 2 entries", tenants)
	}
	// Sorted by descending cost: vm-b ($30) first.
	if tenants[0].Tenant != "vm-b" || tenants[1].Tenant != "vm-a" {
		t.Errorf("tenant order: %s, %s", tenants[0].Tenant, tenants[1].Tenant)
	}
	// vm-a accumulated both entries.
	if tenants[1].Cost != 15 || tenants[1].InstanceHours != 6 || tenants[1].Duration != 2*time.Hour {
		t.Errorf("vm-a rollup: %+v", tenants[1])
	}

	byService := b.ByService()
	if len(byService) != 2 || byService[0].Service != "specweb" {
		t.Errorf("ByService: %+v", byService)
	}
}

func TestFleetBillTieBreakByName(t *testing.T) {
	b := NewFleetBill([]TenantUsage{{Tenant: "vm-z", Cost: 7}, {Tenant: "vm-a", Cost: 7}})
	tenants := b.Tenants()
	if tenants[0].Tenant != "vm-a" || tenants[1].Tenant != "vm-z" {
		t.Errorf("equal-cost tenants should sort by name: %+v", tenants)
	}
}

func TestFleetBillWrite(t *testing.T) {
	b := NewFleetBill([]TenantUsage{{Tenant: "vm-a", Service: "rubis", Cost: 12.5, InstanceHours: 3}})
	var buf bytes.Buffer
	if err := b.WriteTop(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vm-a", "rubis", "total", "12.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFleetBillTotalOrderIndependent pins that Total and ByService sum
// in a fixed (tenant-id) order: in float64 these costs add to 2, 1 or
// 0 depending on where the large terms cancel, so a sum in
// map-iteration order, or in the order the entries arrive, changes
// between calls and between bills.
func TestFleetBillTotalOrderIndependent(t *testing.T) {
	usage := []TenantUsage{
		{Tenant: "vm-a", Service: "rubis", Cost: 1e16},
		{Tenant: "vm-b", Service: "rubis", Cost: 1},
		{Tenant: "vm-c", Service: "rubis", Cost: -1e16},
		{Tenant: "vm-d", Service: "rubis", Cost: 1},
	}
	want := 0.0 // id order, in float64 rather than exact constant arithmetic
	for _, c := range []float64{1e16, 1, -1e16, 1} {
		want += c
	}
	for _, perm := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		in := make([]TenantUsage, len(perm))
		for k, i := range perm {
			in[k] = usage[i]
		}
		b := NewFleetBill(in)
		for i := 0; i < 64; i++ {
			if got := b.Total(); got != want {
				t.Fatalf("order %v, call %d: Total() = %v, want the id-order sum %v", perm, i, got, want)
			}
			if got := b.ByService(); len(got) != 1 || got[0].Cost != want {
				t.Fatalf("order %v, call %d: ByService() = %+v, want one rubis row of the id-order sum %v", perm, i, got, want)
			}
		}
	}
}

// TestFleetBillSameTenantInEntryOrder pins that the entries of one
// tenant accumulate in the order the bill was built from: these add to
// 1 in that order and to 0 or 2 in others.
func TestFleetBillSameTenantInEntryOrder(t *testing.T) {
	want := 0.0
	var usage []TenantUsage
	for _, c := range []float64{1e16, 1, -1e16, 1} {
		want += c
		usage = append(usage, TenantUsage{Tenant: "vm-a", Cost: c})
	}
	b := NewFleetBill(usage)
	if got := b.Tenants(); len(got) != 1 || got[0].Cost != want {
		t.Fatalf("Tenants() = %+v, want one vm-a row of the entry-order sum %v", got, want)
	}
	if got := b.Total(); got != want {
		t.Errorf("Total() = %v, want the entry-order sum %v", got, want)
	}
}
