package sim

import (
	"reflect"
	"testing"

	"repro/internal/cloud"
)

// containsPointers walks a type and reports whether any reachable
// field could hold a pointer the GC would have to trace.
func containsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return containsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if containsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		// Ptr, Slice, String, Map, Chan, Interface, Func, UnsafePointer.
		return true
	}
}

// TestStepRecordPointerFree pins the arena property the fleet relies
// on: a []StepRecord slab must be a noscan allocation, so the record
// may never grow a pointer-carrying field (string, slice, pointer,
// interface...). If this fails, store an index (like AllocRef does for
// the instance type) instead of the pointed-to value.
func TestStepRecordPointerFree(t *testing.T) {
	typ := reflect.TypeOf(StepRecord{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if containsPointers(f.Type) {
			t.Errorf("StepRecord.%s (%s) contains pointers; the step arena must stay noscan", f.Name, f.Type)
		}
	}
}

// TestAllocRefRoundTrip checks the compact form preserves every
// catalog-backed allocation, including the zero allocation.
func TestAllocRefRoundTrip(t *testing.T) {
	allocs := []cloud.Allocation{
		{},
		{Type: cloud.Small, Count: 1},
		{Type: cloud.Large, Count: 7},
		{Type: cloud.XLarge, Count: 3},
	}
	for _, a := range allocs {
		ref := RefOf(a)
		got := cloud.Allocation{Type: ref.Type.Instance(), Count: int(ref.Count)}
		if !got.Equal(a) || got.Type.Capacity != a.Type.Capacity {
			t.Errorf("round trip %v -> %v", a, got)
		}
		if ref.Capacity() != a.Capacity() {
			t.Errorf("capacity of %v: ref %v, want %v", a, ref.Capacity(), a.Capacity())
		}
	}
}
