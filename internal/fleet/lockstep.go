package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// maxBlock caps a lockstep block. Two forces set it. Every round of a
// block pays one frame's round trip — syscalls and two network
// park/wake cycles, tens of microseconds — whatever the frame holds, so
// wider blocks pay that floor fewer times. But every parked VM's kit is
// touched once per round — its runner, controller and tuners held in
// one vmKit of about 1.2 KB, plus its profiler, stream and observation
// — so a block much wider than this outgrows a core's L2 and each round
// slows down. Remote fleets gain up to 256-VM blocks and level off
// there, while 1 024-VM blocks step each VM slower: 256 is the
// narrowest block on the plateau. It is a constant, not a knob, and
// does not depend on the host: with the interference loop on, VMs
// store entries for each other, so the block schedule decides the
// results.
const maxBlock = 256

// lockstepBlocks cuts the template-major order into the units workers
// claim, returned as boundaries: unit u is order[b[u]:b[u+1]]. VMs of
// a template whose source takes batches go in blocks of
// min(maxBlock, ceil(groupVMs/workers)) — every worker gets a share of
// even a small template — and a block never spans templates; any other
// VM is a unit of its own. A fleet with no such template (every
// in-process fleet) gets nil: no blocks, every VM run straight through.
func lockstepBlocks(specs []sim.VMSpec, order []int, groups map[string]*group, workers int) []int {
	var bounds []int
	batching := false
	for lo := 0; lo < len(order); {
		g := groups[specs[order[lo]].Service.Name()]
		hi := lo + len(g.vms) // a template's VMs are consecutive in order
		size := 1
		if _, ok := g.source.(core.BatchSource); ok {
			batching = true
			size = (len(g.vms) + workers - 1) / workers
			if size > maxBlock {
				size = maxBlock
			}
		}
		for ; lo < hi; lo += size {
			bounds = append(bounds, lo)
		}
		lo = hi
	}
	if !batching {
		return nil
	}
	return append(bounds, len(order))
}

// lockstepVM is one VM of a lockstep block: its runner (its kit's,
// reset for it), and the DecisionSource its controller sees. Only the
// block driver advances the runner, on the worker's goroutine, so
// Config.Workers still bounds concurrency and the worker's templateCtx
// and kits keep a single owner.
type lockstepVM struct {
	core.DecisionSource // Events, Get and Put pass straight through

	index int // into Config.Specs
	run   *sim.Runner

	// The parked lookup: Lookup sets row and bucket; the driver sets
	// res and answered, and clears row.
	row      []float64
	bucket   int
	res      core.LookupResult
	answered bool
}

// Lookup parks the signature with the block driver, and answers the
// controller's re-call once the frame carrying it has come back.
func (vm *lockstepVM) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	if vm.answered {
		vm.answered = false
		return vm.res, nil
	}
	if err := sig.Validate(); err != nil {
		return core.LookupResult{}, err
	}
	if want := len(vm.Events()); len(sig.Values) != want {
		return core.LookupResult{}, fmt.Errorf("fleet: signature width %d, template expects %d", len(sig.Values), want)
	}
	vm.row, vm.bucket = sig.Values, bucket
	return core.LookupResult{}, core.ErrParked
}

// lockstep runs the same-template VMs members as one block: advance
// every VM's runner until its controller parks at a Lookup, send one
// frame per distinct interference bucket among the parked rows, hand
// out the decisions, and repeat until every VM has finished. The first
// failure — a VM's own error or a failed frame — aborts the block:
// every VM not yet finished fails with it, under its own name.
func (p *runPhase) lockstep(worker int, members []int) {
	// lockstepBlocks only blocks groups whose source takes batches.
	src := p.groups[p.cfg.Specs[members[0]].Service.Name()].source.(core.BatchSource)
	vms := make([]lockstepVM, len(members))
	live := make([]*lockstepVM, 0, len(members))
	var abort error
	fail := func(i int, err error) {
		p.finish(i, nil, err)
		if abort == nil {
			abort = fmt.Errorf("lockstep block aborted: %w", err)
		}
	}
	for k, i := range members {
		vm := &vms[k]
		vm.DecisionSource, vm.index = src, i
		simCfg, run, err := p.vmConfig(worker, i, vm, k, len(members))
		if err == nil {
			vm.run = run
			err = run.Reset(simCfg)
		}
		if err != nil {
			fail(i, err)
			continue
		}
		live = append(live, vm)
	}

	frame := make([]*lockstepVM, 0, len(members))
	rows := make([][]float64, 0, len(members))
	out := make([]core.LookupResult, len(members))
	for len(live) > 0 {
		parked := live[:0]
		for _, vm := range live {
			if abort != nil {
				p.finish(vm.index, nil, abort)
			} else if ok, err := vm.run.Advance(); ok {
				parked = append(parked, vm)
			} else if err != nil {
				fail(vm.index, err)
			} else {
				p.finish(vm.index, vm.run.Result(), nil)
			}
		}
		live = parked
		for k, vm := range live {
			if abort != nil {
				break
			}
			if vm.row == nil {
				continue // answered by an earlier peer's frame
			}
			frame, rows = frame[:0], rows[:0]
			for _, peer := range live[k:] {
				if peer.row != nil && peer.bucket == vm.bucket {
					frame, rows = append(frame, peer), append(rows, peer.row)
				}
			}
			if err := src.LookupRows(vm.bucket, rows, out); err != nil {
				abort = fmt.Errorf("lockstep block aborted: %w", err)
				break
			}
			for j, peer := range frame {
				peer.res, peer.answered, peer.row = out[j], true, nil
			}
		}
	}
}
