package a

// Config has one field per case of the set rule; Apply reads them all.
type Config struct {
	Workers int    // set by New from its argument, positionally: set
	Depth   int    // written only by defaults, a constant: unset
	Verbose bool   // set only by a test: unset
	Tuned   int    // set only by the nested module's main: listed
	Addr    string // set through &f by package b: set
}

// New is the options a command starts from. Of its positional
// elements only workers, not a constant, sets a field.
func New(workers int) Config { return Config{workers, 0, false, 0, ""} }

// defaults fills in Depth: a package's own constant write.
func (c *Config) defaults() {
	if c.Depth == 0 {
		c.Depth = 3
	}
}

// Apply reads every option.
func Apply(c Config) int {
	c.defaults()
	if c.Verbose {
		return 0
	}
	return c.Workers + c.Depth + c.Tuned + len(c.Addr)
}
