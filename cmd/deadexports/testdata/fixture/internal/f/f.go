// Package f is linked only by the nested module's main.
package f

// Value is called only by the nested module's main.
func Value() int { return seed }

// seed's initialiser runs only where f is linked: no command runs it.
var seed = start()

// start is called only by seed's initialiser.
func start() int { return 12 }
