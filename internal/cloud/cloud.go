// Package cloud simulates the virtualized hosting platform the paper
// evaluates on (Amazon EC2, July 2011): an instance catalog with the
// large and extra-large types used in the scale-up case study, hourly
// billing at the paper's prices ($0.34/h large, $0.68/h extra large),
// and horizontal (scale-out) and vertical (scale-up) provisioning with
// warm-up delays. DejaVu only interacts with the platform through
// "apply this allocation" and "what is serving now", which is exactly
// what this package models; contention from co-located tenants is
// applied by the simulation engine (internal/sim).
package cloud

import (
	"errors"
	"fmt"
	"time"
)

// InstanceType describes one entry of the provider's catalog.
type InstanceType struct {
	// Name identifies the type ("small", "large", "xlarge").
	Name string
	// Capacity is the relative compute capacity in EC2-large units
	// (large = 1.0, xlarge = 2.0).
	Capacity float64
	// PricePerHour is the on-demand price in USD.
	PricePerHour float64
	// WarmupDelay is how long a pre-created instance of this type
	// takes to become useful after activation. The paper pre-creates
	// VMs: "Pre-created VMs are ready for instant use, except for a
	// short warm-up time."
	WarmupDelay time.Duration
}

// The catalog entries used throughout the evaluation. Prices are the
// paper's "as of July 2011" EC2 numbers.
var (
	Small  = InstanceType{Name: "small", Capacity: 0.25, PricePerHour: 0.085, WarmupDelay: 30 * time.Second}
	Large  = InstanceType{Name: "large", Capacity: 1.0, PricePerHour: 0.34, WarmupDelay: 30 * time.Second}
	XLarge = InstanceType{Name: "xlarge", Capacity: 2.0, PricePerHour: 0.68, WarmupDelay: 45 * time.Second}
)

// Catalog returns the instance types in ascending capacity order.
func Catalog() []InstanceType { return []InstanceType{Small, Large, XLarge} }

// TypeID is a compact pointer-free index into the instance catalog.
// Bulk record stores (the fleet's step-record arena) hold TypeIDs
// instead of InstanceType values so the GC never has to scan them:
// an InstanceType carries its Name string, and one string pointer per
// record is enough to make a multi-million-record slab a scan target.
type TypeID uint8

// The catalog indices. NoType is the zero value, representing the
// absence of an allocation (e.g. a zero Allocation).
const (
	NoType TypeID = iota
	SmallID
	LargeID
	XLargeID
)

// ID returns the catalog index for the type; unknown (including
// zero-value) types map to NoType.
func (t InstanceType) ID() TypeID {
	switch t.Name {
	case Small.Name:
		return SmallID
	case Large.Name:
		return LargeID
	case XLarge.Name:
		return XLargeID
	}
	return NoType
}

// Instance resolves the index back to the catalog entry; NoType (and
// out-of-range values) yield the zero InstanceType.
func (id TypeID) Instance() InstanceType {
	switch id {
	case SmallID:
		return Small
	case LargeID:
		return Large
	case XLargeID:
		return XLarge
	}
	return InstanceType{}
}

// TypeByName looks up a catalog entry.
func TypeByName(name string) (InstanceType, error) {
	for _, t := range Catalog() {
		if t.Name == name {
			return t, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
}

// Allocation is a resource allocation decision: how many instances of
// which type. It is the value DejaVu caches and reuses.
type Allocation struct {
	Type  InstanceType
	Count int
}

// Capacity returns the total compute capacity in large-instance units.
func (a Allocation) Capacity() float64 { return float64(a.Count) * a.Type.Capacity }

// HourlyCost returns the allocation's cost per hour in USD.
func (a Allocation) HourlyCost() float64 { return float64(a.Count) * a.Type.PricePerHour }

// CostFor returns the cost of holding this allocation for d.
func (a Allocation) CostFor(d time.Duration) float64 {
	return a.HourlyCost() * d.Hours()
}

// Equal reports whether two allocations are the same decision.
func (a Allocation) Equal(b Allocation) bool {
	return a.Type.Name == b.Type.Name && a.Count == b.Count
}

// String renders the allocation like "4 x large".
func (a Allocation) String() string { return fmt.Sprintf("%d x %s", a.Count, a.Type.Name) }

// Validate checks the allocation is usable.
func (a Allocation) Validate() error {
	if a.Count <= 0 {
		return fmt.Errorf("cloud: allocation count %d must be positive", a.Count)
	}
	if a.Type.Capacity <= 0 {
		return errors.New("cloud: allocation has no instance type")
	}
	return nil
}

// Deployment is a live deployment of a service on the simulated
// provider. Time is explicit: all methods take the current offset from
// the simulation start, so deployments are fully deterministic and
// never consult the wall clock.
type Deployment struct {
	current    Allocation
	pending    Allocation // unboxed, so Apply allocates nothing
	hasPending bool       // a change is warming up: pending is valid
	readyAt    time.Duration
	lastBill   time.Duration
	cost       float64
}

// NewDeployment starts a deployment with the given initial allocation,
// active immediately.
func NewDeployment(initial Allocation) (*Deployment, error) {
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	return &Deployment{current: initial}, nil
}

// Apply requests a new allocation at the given time. The change
// becomes effective after the target type's warm-up delay; until then
// the old allocation keeps serving (and keeps being billed — the
// provider charges for what is provisioned). Applying an allocation
// equal to the current one is a no-op. Billing is brought up to date
// first.
func (d *Deployment) Apply(now time.Duration, a Allocation) error {
	if err := a.Validate(); err != nil {
		return err
	}
	d.settle(now)
	if a.Equal(d.current) && !d.hasPending {
		return nil
	}
	d.accrue(now)
	d.pending, d.hasPending = a, true
	d.readyAt = now + a.Type.WarmupDelay
	return nil
}

// settle promotes a pending allocation that has finished warming up.
func (d *Deployment) settle(now time.Duration) {
	if d.hasPending && now >= d.readyAt {
		// Bill the interval served by the old allocation.
		d.accrue(d.readyAt)
		d.current, d.hasPending = d.pending, false
	}
}

// accrue charges the current allocation from the last billing point to
// now.
func (d *Deployment) accrue(now time.Duration) {
	if now <= d.lastBill {
		return
	}
	d.cost += d.current.CostFor(now - d.lastBill)
	d.lastBill = now
}

// Status returns the serving allocation, the most recently requested
// allocation, and whether a change is still warming up, settling
// pending work once: the simulation engine's per-step snapshot.
func (d *Deployment) Status(now time.Duration) (active, target Allocation, inTransition bool) {
	d.settle(now)
	if d.hasPending {
		return d.current, d.pending, true
	}
	return d.current, d.current, false
}

// PendingReadyAt reports when the in-flight allocation change becomes
// active; ok is false when nothing is pending. Combined with Status it
// lets a caller cache the deployment snapshot between state-changing
// events instead of re-querying every step.
func (d *Deployment) PendingReadyAt() (readyAt time.Duration, ok bool) {
	if !d.hasPending {
		return 0, false
	}
	return d.readyAt, true
}

// Cost returns the accumulated bill up to the given time.
func (d *Deployment) Cost(now time.Duration) float64 {
	d.settle(now)
	d.accrue(now)
	return d.cost
}
