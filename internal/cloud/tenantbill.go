package cloud

import (
	"fmt"
	"io"
	"sort"
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

// FleetBill is a fleet run's per-tenant billing aggregation, built once
// from every VM's usage when the run is over and read-only from then on.
type FleetBill struct {
	tenants []TenantUsage // one per tenant, in the order each first appears
}

// NewFleetBill builds the bill from usage, one entry per VM in a fixed
// order (the fleet's spec order). Entries that name the same tenant
// accumulate in that order, so the bill never depends on the order the
// VMs finished in. A tenant's service is the last non-empty one its
// entries name. The bill is rolled up in usage's own memory: the caller
// hands usage over.
func NewFleetBill(usage []TenantUsage) *FleetBill {
	return &FleetBill{tenants: rollUp(usage, func(u *TenantUsage) string { return u.Tenant })}
}

// rollUp sums usage per key, in usage order, into one row per key in
// the order each key first appears; a row's Tenant is its key. It works
// in place: the rows are returned in usage's first entries.
func rollUp(usage []TenantUsage, key func(*TenantUsage) string) []TenantUsage {
	at := make(map[string]int, len(usage))
	n := 0
	for k := range usage {
		u := &usage[k]
		name := key(u)
		if i, ok := at[name]; ok {
			usage[i].add(u)
			continue
		}
		at[name] = n
		if n != k {
			usage[n] = *u
		}
		usage[n].Tenant = name
		n++
	}
	return usage[:n]
}

// byTenant returns every tenant's usage, sorted by tenant id.
func (b *FleetBill) byTenant() []TenantUsage {
	out := append([]TenantUsage(nil), b.tenants...)
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// add accumulates u's spending onto cur.
func (cur *TenantUsage) add(u *TenantUsage) {
	if u.Service != "" {
		cur.Service = u.Service
	}
	cur.Cost += u.Cost
	cur.InstanceHours += u.InstanceHours
	cur.Duration += u.Duration
}

// Total returns the fleet-wide bill total in USD. Costs are summed in
// tenant-id order, so the total is one fixed float sum.
func (b *FleetBill) Total() float64 {
	sum := 0.0
	for _, u := range b.byTenant() {
		sum += u.Cost
	}
	return sum
}

// Tenants returns every tenant's usage, sorted by descending cost and
// then by name for stable reports.
func (b *FleetBill) Tenants() []TenantUsage {
	out := b.byTenant()
	sortByCost(out)
	return out
}

// ByService rolls the bill up per service template, tenants summed in
// tenant-id order, sorted by descending cost then name.
func (b *FleetBill) ByService() []TenantUsage {
	out := rollUp(b.byTenant(), func(u *TenantUsage) string { return u.Service })
	sortByCost(out)
	return out
}

// sortByCost sorts usages by descending cost, then by name.
func sortByCost(out []TenantUsage) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Tenant < out[j].Tenant
	})
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
