package cloud

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// TenantUsage is one tenant's aggregated spending over a fleet run.
type TenantUsage struct {
	// Tenant identifies the tenant (the fleet VM name).
	Tenant string
	// Service is the service template the tenant runs.
	Service string
	// Cost is the provisioning bill in USD.
	Cost float64
	// InstanceHours is the time-integrated instance count.
	InstanceHours float64
	// Duration is the billed wall-clock span.
	Duration time.Duration
}

// FleetBill aggregates per-tenant usage across a fleet of concurrently
// simulated deployments. It is safe for concurrent use: fleet workers
// post each tenant's usage as its run finishes.
type FleetBill struct {
	mu     sync.Mutex
	usage  map[string]TenantUsage
	posted int
}

// NewFleetBill returns an empty aggregator.
func NewFleetBill() *FleetBill {
	return &FleetBill{usage: make(map[string]TenantUsage)}
}

// Post records (or accumulates onto) a tenant's usage.
func (b *FleetBill) Post(u TenantUsage) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.usage[u.Tenant]
	cur.Tenant = u.Tenant
	if u.Service != "" {
		cur.Service = u.Service
	}
	cur.Cost += u.Cost
	cur.InstanceHours += u.InstanceHours
	cur.Duration += u.Duration
	b.usage[u.Tenant] = cur
	b.posted++
}

// Total returns the fleet-wide bill total in USD. Costs are summed in
// tenant-id order: float addition is not associative, so summing in
// map-iteration order would change the last bits from run to run.
func (b *FleetBill) Total() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.usage))
	for id := range b.usage {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sum := 0.0
	for _, id := range ids {
		sum += b.usage[id].Cost
	}
	return sum
}

// Tenants returns every tenant's usage, sorted by descending cost and
// then by name for stable reports.
func (b *FleetBill) Tenants() []TenantUsage {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TenantUsage, 0, len(b.usage))
	for _, u := range b.usage {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// ByService rolls the bill up per service template, sorted by
// descending cost then name.
func (b *FleetBill) ByService() []TenantUsage {
	b.mu.Lock()
	defer b.mu.Unlock()
	agg := make(map[string]TenantUsage)
	for _, u := range b.usage {
		cur := agg[u.Service]
		cur.Tenant = u.Service
		cur.Service = u.Service
		cur.Cost += u.Cost
		cur.InstanceHours += u.InstanceHours
		cur.Duration += u.Duration
		agg[u.Service] = cur
	}
	out := make([]TenantUsage, 0, len(agg))
	for _, u := range agg {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// WriteTop renders the report limited to the top n tenants by cost
// (n <= 0 means all); the total line always covers the whole fleet.
func (b *FleetBill) WriteTop(w io.Writer, n int) error {
	tenants := b.Tenants()
	if n > 0 && len(tenants) > n {
		tenants = tenants[:n]
	}
	for _, u := range tenants {
		if _, err := fmt.Fprintf(w, "%-20s %-10s %8.1f inst-h  $%10.2f\n",
			u.Tenant, u.Service, u.InstanceHours, u.Cost); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-31s total  $%10.2f\n", "", b.Total())
	return err
}
