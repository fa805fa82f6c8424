// Package a declares one exported name per case the gate must judge.
package a

// Unused is referenced by nothing.
func Unused() int { return 1 }

// TestOnly is referenced only by this package's tests, in-package and
// external.
func TestOnly() int { return 2 }

// Used is called by package b.
func Used() int { return 3 }

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
