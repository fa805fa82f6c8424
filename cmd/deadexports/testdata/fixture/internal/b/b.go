// Package b uses package a.
package b

import "fixture/internal/a"

// Shape is anything with an area.
type Shape interface{ Area() int }

// Total sums the areas of shapes.
func Total(shapes ...Shape) int {
	sum := a.Used()
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

var _ = Total(a.Square{Side: 2})
