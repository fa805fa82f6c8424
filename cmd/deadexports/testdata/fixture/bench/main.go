// Command bench is a nested module's main, like the repository's
// benchmark/.
package main

import (
	"fixture/internal/a"
	"fixture/internal/f"
)

func main() { _ = a.BenchOnly() + f.Value() }
