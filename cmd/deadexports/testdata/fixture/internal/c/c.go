// Command c has the entry points nothing calls, main and init, and
// links package b, whose var initialiser runs at start-up.
package main

import _ "fixture/internal/b"

func init() {}

func main() {}
