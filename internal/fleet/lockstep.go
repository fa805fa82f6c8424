package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// maxBlock caps a lockstep block: the round-trip floor is amortised
// 64 ways, and a block's goroutine stacks and parked rows stay small.
const maxBlock = 64

// lockstepBlocks cuts the template-major order into the units workers
// claim, returned as boundaries: unit u is order[b[u]:b[u+1]]. VMs of
// a template whose source takes batches go in blocks of
// min(maxBlock, ceil(groupVMs/workers)) — every worker gets a share of
// even a small template — and a block never spans templates; any other
// VM is a unit of its own. A fleet with no such template (every
// in-process fleet) gets nil: no blocks, and no goroutines beyond its
// workers.
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

// lockstepVM is one VM of a lockstep block and the DecisionSource its
// controller sees. Its goroutine runs runVM and is runnable only
// between a resume and its next yield, so a block's VMs and their
// driver take turns on one worker: Config.Workers still bounds
// concurrency and the worker's templateCtx keeps a single owner.
type lockstepVM struct {
	core.DecisionSource // Events, Get and Put pass straight through

	index  int             // into Config.Specs
	tc     templateCtx     // the VM's own kit; memo and proto are the worker's
	resume chan error      // driver → VM: run on (nil), or fail with this
	yield  chan<- struct{} // VM → driver: parked in Lookup, or finished

	// The parked lookup. The VM sets row and bucket before it yields;
	// the driver sets res and clears row before it resumes the VM.
	row    []float64
	bucket int
	res    core.LookupResult

	// Set by the VM's goroutine before its last yield.
	done   bool
	result *sim.Result
	err    error
}

// run is the VM's goroutine: wait for the first turn, simulate, and
// hand the worker back for good.
func (vm *lockstepVM) run(simulate func() (*sim.Result, error)) {
	if vm.err = <-vm.resume; vm.err == nil {
		vm.result, vm.err = simulate()
	}
	vm.done = true
	vm.yield <- struct{}{}
}

// Lookup parks the signature with the block driver and yields the
// worker until the frame carrying it has been answered.
func (vm *lockstepVM) Lookup(sig *core.Signature, bucket int) (core.LookupResult, error) {
	if err := sig.Validate(); err != nil {
		return core.LookupResult{}, err
	}
	if want := len(vm.Events()); len(sig.Values) != want {
		return core.LookupResult{}, fmt.Errorf("fleet: signature width %d, template expects %d", len(sig.Values), want)
	}
	vm.row, vm.bucket = sig.Values, bucket
	vm.yield <- struct{}{}
	if err := <-vm.resume; err != nil {
		return core.LookupResult{}, err
	}
	return vm.res, nil
}

// lockstep runs the same-template VMs members as one block: advance
// every VM to its next Lookup, send one frame per distinct interference
// bucket among the parked rows, scatter the decisions, and repeat until
// every VM has finished. The first failure — a VM's own error or a
// failed frame — aborts the block: every VM still parked (or not yet
// started) is resumed with the error, so each fails under its own name
// and every goroutine unwinds before lockstep returns.
func (p *runPhase) lockstep(worker int, members []int) {
	// lockstepBlocks only blocks groups whose source takes batches.
	src := p.groups[p.cfg.Specs[members[0]].Service.Name()].source.(core.BatchSource)
	yield := make(chan struct{})
	vms := make([]lockstepVM, len(members))
	live := make([]*lockstepVM, len(members))
	for k, i := range members {
		g, tc, records := p.setup(worker, i)
		vm := &vms[k]
		*vm = lockstepVM{DecisionSource: src, index: i, resume: make(chan error), yield: yield}
		if tc != nil {
			vm.tc.memo, vm.tc.proto = tc.memo, tc.proto
		}
		live[k] = vm
		go vm.run(func() (*sim.Result, error) {
			return runVM(p.cfg, p.cfg.Specs[vm.index], p.active[vm.index], g, vm, &vm.tc, records)
		})
	}

	frame := make([]*lockstepVM, 0, len(members))
	rows := make([][]float64, 0, len(members))
	out := make([]core.LookupResult, len(members))
	var abort error
	for len(live) > 0 {
		parked := live[:0]
		for _, vm := range live {
			vm.resume <- abort
			<-yield
			if !vm.done {
				parked = append(parked, vm)
				continue
			}
			p.finish(worker, vm.index, vm.result, vm.err)
			if vm.err != nil && abort == nil {
				abort = fmt.Errorf("lockstep block aborted: %w", vm.err)
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
				peer.res, peer.row = out[j], nil
			}
		}
	}
}
