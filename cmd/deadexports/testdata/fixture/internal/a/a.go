// Package a declares one name per case the gate must judge.
package a

// Unused is referenced by nothing.
func Unused() int { return 1 }

// TestOnly is referenced only by this package's tests, in-package and
// external.
func TestOnly() int { return 2 }

// Used is called by package b.
func Used() int { return double(1) + 1 }

// double is unexported and called by Used.
func double(n int) int { return 2 * n }

// helper is unexported and referenced only by this package's tests.
func helper() int { return 5 }

// countdown calls itself, and otherwise only this package's tests call
// it.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// UsedByOtherTests is referenced only by package b's tests.
const UsedByOtherTests = 4

// Square is a shape.
type Square struct{ Side int }

// Area implements b.Shape, so callers reach it through the interface.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter implements nothing and nothing calls it.
func (s Square) Perimeter() int { return 4 * s.Side }

// Diagonal implements nothing; the test allow-lists it.
func (s Square) Diagonal() int { return s.Side }

// scale is unexported, implements nothing, and only this package's
// tests call it.
func (s Square) scale(k int) Square { return Square{Side: k * s.Side} }

// sizer is an interface with an unexported method.
type sizer interface{ size() int }

// size implements sizer, so callers reach it through the interface.
func (s Square) size() int { return s.Side }
