// Command c has the entry points nothing calls: main and init.
package main

func init() {}

func main() {}
