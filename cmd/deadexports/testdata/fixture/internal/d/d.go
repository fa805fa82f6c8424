// Package d is test support: only tests import it.
package d

// Helper is called only by package a's tests.
func Helper() int { return 9 }

// Orphan is called by nothing.
func Orphan() int { return 10 }
