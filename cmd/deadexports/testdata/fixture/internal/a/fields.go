package a

import "sync/atomic"

// Tally has one field per case of the read rule.
type Tally struct {
	read    int           // written and read by Record: live
	written int           // assigned and incremented, never read
	hits    atomic.Int64  // only added to, the result unused
	loaded  atomic.Int64  // added to and loaded: live
	shared  *atomic.Int64 // read to reach the counter it points to: live
	Label   string        `json:"label"` // tagged: exempt
}

// pair is a map key, so hashing reads its fields: exempt.
type pair struct{ x, y int }

// Record is reached from package b's var initialiser; it writes every
// Tally field and reads some.
func Record(t *Tally) int {
	*t = Tally{read: 1, Label: "l"}
	t.written = 1
	t.written++
	t.hits.Add(1)
	t.loaded.Add(1)
	t.shared.Add(1)
	seen := map[pair]bool{{x: 1, y: 2}: true}
	return t.read + int(t.loaded.Load()) + len(seen)
}

// chainHead calls chainTail, and nothing calls chainHead.
func chainHead() int { return chainTail() }

// chainTail is called only by chainHead.
func chainTail() int { return 7 }

// BenchOnly is called only by the nested module's main.
func BenchOnly() int { return benchHelper() }

// benchHelper is called only by BenchOnly.
func benchHelper() int { return 8 }
