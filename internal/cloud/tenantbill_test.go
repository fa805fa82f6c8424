package cloud

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFleetBillAggregation(t *testing.T) {
	b := NewFleetBill()
	b.Post(TenantUsage{Tenant: "vm-a", Service: "cassandra", Cost: 10, InstanceHours: 5, Duration: time.Hour})
	b.Post(TenantUsage{Tenant: "vm-b", Service: "specweb", Cost: 30, InstanceHours: 2, Duration: time.Hour})
	b.Post(TenantUsage{Tenant: "vm-a", Service: "cassandra", Cost: 5, InstanceHours: 1, Duration: time.Hour})

	if got := b.Total(); math.Abs(got-45) > 1e-12 {
		t.Errorf("Total = %v, want 45", got)
	}
	if b.posted != 3 {
		t.Errorf("Posts = %d, want 3", b.posted)
	}

	tenants := b.Tenants()
	if len(tenants) != 2 {
		t.Fatalf("Tenants = %+v, want 2 entries", tenants)
	}
	// Sorted by descending cost: vm-b ($30) first.
	if tenants[0].Tenant != "vm-b" || tenants[1].Tenant != "vm-a" {
		t.Errorf("tenant order: %s, %s", tenants[0].Tenant, tenants[1].Tenant)
	}
	// vm-a accumulated both posts.
	if tenants[1].Cost != 15 || tenants[1].InstanceHours != 6 || tenants[1].Duration != 2*time.Hour {
		t.Errorf("vm-a rollup: %+v", tenants[1])
	}

	byService := b.ByService()
	if len(byService) != 2 || byService[0].Service != "specweb" {
		t.Errorf("ByService: %+v", byService)
	}
}

func TestFleetBillTieBreakByName(t *testing.T) {
	b := NewFleetBill()
	b.Post(TenantUsage{Tenant: "vm-z", Cost: 7})
	b.Post(TenantUsage{Tenant: "vm-a", Cost: 7})
	tenants := b.Tenants()
	if tenants[0].Tenant != "vm-a" || tenants[1].Tenant != "vm-z" {
		t.Errorf("equal-cost tenants should sort by name: %+v", tenants)
	}
}

func TestFleetBillConcurrentPosts(t *testing.T) {
	b := NewFleetBill()
	const workers = 8
	const posts = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				b.Post(TenantUsage{
					Tenant:  fmt.Sprintf("vm-%d", w),
					Service: "cassandra",
					Cost:    1,
				})
			}
		}(w)
	}
	wg.Wait()
	if got := b.Total(); math.Abs(got-workers*posts) > 1e-9 {
		t.Errorf("Total = %v, want %d", got, workers*posts)
	}
	if got := len(b.Tenants()); got != workers {
		t.Errorf("%d tenants, want %d", got, workers)
	}
	if b.posted != workers*posts {
		t.Errorf("Posts = %d, want %d", b.posted, workers*posts)
	}
}

func TestFleetBillWrite(t *testing.T) {
	b := NewFleetBill()
	b.Post(TenantUsage{Tenant: "vm-a", Service: "rubis", Cost: 12.5, InstanceHours: 3})
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

// TestFleetBillTotalOrderIndependent pins that Total sums in a fixed
// (tenant-id) order: in float64 these costs add to 2, 1 or 0
// depending on where the large terms cancel, so a map-iteration-order
// sum changes between calls.
func TestFleetBillTotalOrderIndependent(t *testing.T) {
	b := NewFleetBill()
	for _, u := range []TenantUsage{
		{Tenant: "vm-a", Cost: 1e16},
		{Tenant: "vm-b", Cost: 1},
		{Tenant: "vm-c", Cost: -1e16},
		{Tenant: "vm-d", Cost: 1},
	} {
		b.Post(u)
	}
	want := 0.0 // id order, in float64 rather than exact constant arithmetic
	for _, c := range []float64{1e16, 1, -1e16, 1} {
		want += c
	}
	for i := 0; i < 64; i++ {
		if got := b.Total(); got != want {
			t.Fatalf("call %d: Total() = %v, want the id-order sum %v", i, got, want)
		}
	}
}
