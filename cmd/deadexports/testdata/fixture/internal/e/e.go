// Package e is imported by nothing; only its own tests call it.
package e

// Lonely is called only by this package's tests.
func Lonely() int { return 11 }
