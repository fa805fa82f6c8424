package experiments

import "io"

// Renderer is an experiment's result, printed as text.
type Renderer interface{ Render(io.Writer) }

// Figure is one output of dejavu-exp: its -figure name, its
// constructor, and the file under testdata that pins its bytes at seed
// 42 over 3 days ("" for an output that reads the wall clock).
type Figure struct {
	Name, Golden string
	Run          func(Options) (Renderer, error)
}

// wrap adapts a concrete experiment constructor to Figure.Run.
func wrap[T Renderer](f func(Options) (T, error)) func(Options) (Renderer, error) {
	return func(o Options) (Renderer, error) { return f(o) }
}

// Figures lists every output of dejavu-exp in the order -figure all
// prints them. goldengen writes, and the golden tests compare, every
// entry with a Golden file.
var Figures = []Figure{
	{"1", "figure1_seed42_days3.golden", wrap(Figure1)},
	{"4", "figure4_seed42_days3.golden", wrap(Figure4)},
	{"5", "figure5_seed42_days3.golden", wrap(Figure5)},
	{"table1", "table1_seed42_days3.golden", wrap(Table1)},
	{"6", "figure6_seed42_days3.golden", wrap(Figure6)},
	{"7", "figure7_seed42_days3.golden", wrap(Figure7)},
	{"8", "figure8_seed42_days3.golden", wrap(Figure8)},
	{"9", "figure9_seed42_days3.golden", wrap(Figure9)},
	{"10", "figure10_seed42_days3.golden", wrap(Figure10)},
	{"11", "figure11_seed42_days3.golden", wrap(Figure11)},
	{"proxy", "", wrap(ProxyOverhead)}, // times loopback round trips
	{"cost", "cost_seed42_days3.golden", wrap(CostSummary)},
	{"ablations", "ablations_seed42_days3.golden", wrap(Ablations)},
	{"typechange", "typechange_seed42_days3.golden", wrap(TypeChange)},
	{"drift", "drift_seed42_days3.golden", wrap(Drift)},
	// The sweep has its own pinned fleet shape, so Days does not apply.
	{"scenarios", "scenarios_seed42.golden", func(o Options) (Renderer, error) { return ScenarioSweep(o.Seed) }},
}
