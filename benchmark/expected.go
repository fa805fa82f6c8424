package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json holds the integers checks (b) and (e) compare against,
// recorded per seed and size. BENCHMARK.json's schema is closed, so
// they live here instead.
//
//go:embed expected.json
var expectedJSON []byte

// fleetExpect pins one fleet workload's deterministic integers at one
// fleet size.
type fleetExpect struct {
	Workload string `json:"workload"`
	VMs      int    `json:"vms"`
	Steps    int    `json:"steps"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
}

// adaptExpect pins the class count adapt's relearn must choose at one
// signature count.
type adaptExpect struct {
	Signatures int `json:"signatures"`
	ChosenK    int `json:"chosen_k"`
}

// expected is one seed's record. A seed without a record still runs
// checks (a), (d) and (e)'s cross-checks; only the comparisons against
// recorded integers are skipped.
type expected struct {
	Seed  int64         `json:"seed"`
	Fleet []fleetExpect `json:"fleet"`
	Adapt []adaptExpect `json:"adapt"`
}

func loadExpected(seed int64) (*expected, error) {
	var all []expected
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	for i := range all {
		if all[i].Seed == seed {
			return &all[i], nil
		}
	}
	return nil, nil
}

// fleet returns the record for a fleet workload at this size, if any.
func (x *expected) fleet(workload string, vms int) (fleetExpect, bool) {
	if x != nil {
		for _, f := range x.Fleet {
			if f.Workload == workload && f.VMs == vms {
				return f, true
			}
		}
	}
	return fleetExpect{}, false
}

// adaptK returns the recorded class count at this signature count.
func (x *expected) adaptK(signatures int) (int, bool) {
	if x != nil {
		for _, a := range x.Adapt {
			if a.Signatures == signatures {
				return a.ChosenK, true
			}
		}
	}
	return 0, false
}
