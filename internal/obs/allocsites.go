package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// AllocSites runs f runs times with every heap allocation sampled
// (runtime.MemProfileRate = 1) and reports where the allocations
// happened: the call stacks that allocated most often, then a dump of
// every goroutine. Allocation pins log it when they fail. Their counts
// (testing.AllocsPerRun, runtime.MemStats) are process-wide, so the
// report names the site whether it is in f or in a goroutine left
// running by an earlier test.
func AllocSites(runs int, f func()) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	before := allocsByStack()
	runtime.MemProfileRate = 1
	for i := 0; i < runs; i++ {
		f()
	}
	var stacks [][32]uintptr
	counts := allocsByStack()
	for stack := range counts {
		if counts[stack] -= before[stack]; counts[stack] > 0 {
			stacks = append(stacks, stack)
		}
	}
	sort.Slice(stacks, func(i, j int) bool { return counts[stacks[i]] > counts[stacks[j]] })
	var b strings.Builder
	for _, stack := range stacks[:min(len(stacks), 8)] {
		fmt.Fprintf(&b, "%d allocations (%.1f per run) at:\n", counts[stack], float64(counts[stack])/float64(runs))
		frames := runtime.CallersFrames(stack[:])
		for more, depth := true, 0; more && depth < 12; depth++ {
			var fr runtime.Frame
			if fr, more = frames.Next(); fr.Function != "" {
				fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
			}
		}
	}
	buf := make([]byte, 1<<20)
	return fmt.Sprintf("%sgoroutines:\n%s", b.String(), buf[:runtime.Stack(buf, true)])
}

// allocsByStack returns the heap profile's allocation counts per call
// stack. The profile lags allocation by up to two GC cycles, so it
// collects three times first.
func allocsByStack() map[[32]uintptr]int64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for n, ok := 0, false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
		}
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}
