// Package metrics emulates the low-level monitoring substrate DejaVu
// profiles workloads with: a bank of hardware performance counters
// (HPCs) with a limited number of programmable registers (the paper's
// Intel Xeon X5472 exposes four), time-division multiplexing with its
// accuracy penalty, xentop-style per-VM resource metrics, and a Monitor
// that samples a metric source and normalizes counts by the sampling
// duration so signatures are robust to arbitrary sampling windows
// (paper §3.3).
package metrics

// Event identifies one low-level metric by name. HPC events use the
// counter mnemonics from the paper's Table 1 plus a realistic set of
// additional events; xentop metrics carry an "xentop_" prefix.
type Event string

// The eight HPC events the paper reports in RUBiS's workload signature
// (Table 1).
const (
	EvBusqEmpty     Event = "busq_empty"       // Bus queue is empty
	EvCPUClkUnhalt  Event = "cpu_clk_unhalted" // Clock cycles when not halted
	EvL2Ads         Event = "l2_ads"           // Cycles the L2 address bus is in use
	EvL2RejectBusq  Event = "l2_reject_busq"   // Rejected L2 cache requests
	EvL2St          Event = "l2_st"            // Number of L2 data stores
	EvLoadBlock     Event = "load_block"       // Events pertaining to loads
	EvStoreBlock    Event = "store_block"      // Events pertaining to stores
	EvPageWalks     Event = "page_walks"       // Page table walk events
	EvFlopsRate     Event = "flops"            // Floating point operations (Fig. 4a)
	EvInstRetired   Event = "inst_retired"     // Instructions retired
	EvBrInstRetired Event = "br_inst_retired"  // Branch instructions retired
	EvBrMispredict  Event = "br_mispredict"    // Mispredicted branches
	EvL1DRepl       Event = "l1d_repl"         // L1 data cache line replacements
	EvL2Lines       Event = "l2_lines_in"      // L2 cache lines allocated
	EvDTLBMiss      Event = "dtlb_miss"        // Data TLB misses
	EvITLBMiss      Event = "itlb_miss"        // Instruction TLB misses
)

// Xentop-style VM resource metrics (paper: "Xen's xentop command
// reports individual VM resource consumption (CPU, memory, and I/O)").
const (
	EvXenCPU   Event = "xentop_cpu_pct"
	EvXenMem   Event = "xentop_mem_kb"
	EvXenNetTx Event = "xentop_net_tx_kb"
	EvXenNetRx Event = "xentop_net_rx_kb"
	EvXenVBDRd Event = "xentop_vbd_rd"
	EvXenVBDWr Event = "xentop_vbd_wr"
)

// Dense indices (see Index) of the events the services' rate formulas
// read. They follow from the catalog order below and are pinned to
// Index by TestDenseIndexBijection; being constants, a switch over them
// compiles to a jump table or a binary search, not a chain of loads.
const (
	IdxBusqEmpty = iota
	IdxCPUClkUnhalt
	IdxL2Ads
	IdxL2RejectBusq
	IdxL2St
	IdxLoadBlock
	IdxStoreBlock
	IdxPageWalks
	IdxFlopsRate
	IdxInstRetired
	IdxBrInstRetired
	IdxBrMispredict
	IdxL1DRepl
	IdxL2Lines
	IdxDTLBMiss
)

// Dense indices of the xentop metrics, which follow the 60 HPC events.
const (
	IdxXenCPU = iota + 60
	IdxXenMem
	IdxXenNetTx
	IdxXenNetRx
	IdxXenVBDRd
	IdxXenVBDWr
)

// EventInfo describes one event in the catalog.
type EventInfo struct {
	Event       Event
	Description string
	// HPC is true for hardware counters that occupy a programmable
	// register; xentop metrics are software-read and free.
	HPC bool
}

// catalog is the full event universe: the named constants above plus
// synthetic filler events, for a total of 60 HPC events (the paper:
// "up to 60 different events that can be monitored").
var catalog []EventInfo

func init() {
	named := []EventInfo{
		{EvBusqEmpty, "Bus queue is empty", true},
		{EvCPUClkUnhalt, "Clock cycles when not halted", true},
		{EvL2Ads, "Cycles the L2 address bus is in use", true},
		{EvL2RejectBusq, "Rejected L2 cache requests", true},
		{EvL2St, "Number of L2 data stores", true},
		{EvLoadBlock, "Events pertaining to loads", true},
		{EvStoreBlock, "Events pertaining to stores", true},
		{EvPageWalks, "Page table walk events", true},
		{EvFlopsRate, "Floating point operations", true},
		{EvInstRetired, "Instructions retired", true},
		{EvBrInstRetired, "Branch instructions retired", true},
		{EvBrMispredict, "Mispredicted branch instructions", true},
		{EvL1DRepl, "L1 data cache line replacements", true},
		{EvL2Lines, "L2 cache lines allocated", true},
		{EvDTLBMiss, "Data TLB misses", true},
		{EvITLBMiss, "Instruction TLB misses", true},
	}
	catalog = append(catalog, named...)
	// Synthetic filler HPC events up to 60 total; they exist so that
	// feature selection has a realistic haystack to search.
	fillerNames := []string{
		"uops_retired", "uops_fused", "resource_stalls", "div_busy",
		"fp_assist", "mul_ops", "seg_reg_loads", "x87_ops",
		"simd_instr_retired", "simd_sat_instr", "cycles_int_masked",
		"hw_int_rcv", "bus_trans_any", "bus_trans_mem", "bus_trans_io",
		"bus_drdy_clocks", "bus_lock_clocks", "bus_req_outstanding",
		"cmp_snoop", "ext_snoop", "l1i_misses", "l1i_reads",
		"l1d_all_ref", "l1d_pend_miss", "l2_ifetch", "l2_ld",
		"l2_m_lines_in", "l2_m_lines_out", "l2_no_req", "l2_rqsts",
		"inst_queue_full", "rat_stalls", "rob_read_port", "br_bac_missp",
		"br_call_ret", "br_ind_call", "br_ind_missp", "br_ret_missp",
		"sse_pre_exec", "sse_pre_miss", "store_forwards", "ld_st_transfer",
		"esp_sync", "esp_additions",
	}
	for _, n := range fillerNames {
		catalog = append(catalog, EventInfo{Event(n), "synthetic filler event", true})
	}
	xen := []EventInfo{
		{EvXenCPU, "xentop: VM CPU utilization percent", false},
		{EvXenMem, "xentop: VM memory footprint (KB)", false},
		{EvXenNetTx, "xentop: network transmit (KB)", false},
		{EvXenNetRx, "xentop: network receive (KB)", false},
		{EvXenVBDRd, "xentop: virtual block device reads", false},
		{EvXenVBDWr, "xentop: virtual block device writes", false},
	}
	catalog = append(catalog, xen...)

	// Dense index: HPC events first, then xentop, each group in catalog
	// order — the same order AllEvents returns. The index is what the
	// allocation-free hot path addresses Rates vectors with.
	denseOrder = denseOrder[:0]
	for _, e := range catalog {
		if e.HPC {
			denseOrder = append(denseOrder, e)
		}
	}
	numHPC = len(denseOrder)
	for _, e := range catalog {
		if !e.HPC {
			denseOrder = append(denseOrder, e)
		}
	}
	eventIndex = make(map[Event]int, len(denseOrder))
	hpcByIndex = make([]bool, len(denseOrder))
	eventByIndex = make([]Event, len(denseOrder))
	for i, e := range denseOrder {
		eventIndex[e.Event] = i
		hpcByIndex[i] = e.HPC
		eventByIndex[i] = e.Event
	}
}

// Dense-index tables, built once at init. The catalog is immutable
// after init, so reads need no synchronization.
var (
	denseOrder   []EventInfo
	eventIndex   map[Event]int
	eventByIndex []Event
	hpcByIndex   []bool
	numHPC       int
)

// Index returns the dense integer index of an event (HPC events first,
// then xentop, each group in catalog order) and -1 for unknown events.
// The mapping is fixed at init, so callers may resolve indices once and
// address Rates vectors directly afterwards.
func Index(ev Event) int {
	if i, ok := eventIndex[ev]; ok {
		return i
	}
	return -1
}

// EventAt returns the event at a dense index; it panics when the index
// is out of range.
func EventAt(i int) Event { return eventByIndex[i] }

// Catalog returns a copy of the full event catalog.
func Catalog() []EventInfo {
	return append([]EventInfo(nil), catalog...)
}

// AllEvents returns every event name, HPC first, then xentop, each group
// in catalog order — i.e. dense-index order: AllEvents()[i] has Index i.
func AllEvents() []Event {
	return append([]Event(nil), eventByIndex...)
}

// IsHPC reports whether the event is a hardware counter (true) or a
// xentop software metric (false). Unknown events report false.
func IsHPC(ev Event) bool {
	i, ok := eventIndex[ev]
	return ok && hpcByIndex[i]
}

// IsHPCIndex is IsHPC for a pre-resolved dense index.
func IsHPCIndex(i int) bool {
	return i >= 0 && i < len(hpcByIndex) && hpcByIndex[i]
}
