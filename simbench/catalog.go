package main

import (
	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/stats"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (TestCatalogMatchesManifest).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off. failed_frac is printed beside them but carried in the result
// line as failed/attempted, because the result's metrics must never read 0.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"sim_instrs_per_s", "instrs/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// spanNames are the benchmark's spans around each public call of one leg,
// in call order. Each is reported as seconds summed over the traced pass.
var spanNames = []string{
	"workloads.build_s",
	"backend.place_s",
	"analyzer.program_s",
	"core.decider_s",
	"sim.assemble_s",
	"sim.run_s",
	"workloads.verify_s",
	"energy.compute_s",
}

// cpuLayers are the packages whose self CPU time (by leaf frame) inside
// sim.run_s is reported as <layer>.cpu_s; every other leaf lands in other.
var cpuLayers = []string{"gpu", "cache", "core", "noc", "hmc", "dram", "nsu", "timing", "isa", "vm", "runtime", "other"}

// cpuFuncs are single functions whose self CPU time is reported on its own,
// keyed by metric name and matched as a prefix of the leaf frame's symbol
// (so closures inside them count too).
var cpuFuncs = []struct{ Name, Prefix string }{
	{"gpu.coalesce_cpu_s", "ndpgpu/internal/gpu.(*SM).coalesce"},
	{"gpu.compute_idle_cpu_s", "ndpgpu/internal/gpu.(*SM).computeIdle"},
}

// countDefs are the simulated-work counts of one pass, read from the pass's
// folded statistics. They are exact and host-independent.
var countDefs = []metricDef{
	{"gpu.sm_cycles", "cycles", "lower"},
	{"gpu.issued_instrs", "count", "lower"},
	{"gpu.issue_cycles", "cycles", "higher"},
	{"gpu.noissue_exec_busy", "cycles", "lower"},
	{"gpu.noissue_dep_stall", "cycles", "lower"},
	{"gpu.noissue_warp_idle", "cycles", "lower"},
	{"core.blocks_seen", "count", "lower"},
	{"core.blocks_offloaded", "count", "higher"},
	{"core.offload_frac", "frac", "higher"},
	{"core.credit_rejects", "count", "lower"},
	{"core.credit_rejects_per_issue", "ratio", "lower"},
	{"core.pending_buf_stalls", "cycles", "lower"},
	{"cache.l1i_accesses", "count", "lower"},
	{"cache.l1d_accesses", "count", "lower"},
	{"cache.l1d_hit_rate", "frac", "higher"},
	{"cache.l2_accesses", "count", "lower"},
	{"cache.l2_hit_rate", "frac", "higher"},
	{"cache.tlb_accesses", "count", "lower"},
	{"cache.invalidations", "count", "lower"},
	{"cache.rdf_hits", "count", "higher"},
	{"noc.gpu_link_bytes", "B", "lower"},
	{"noc.memnet_bytes", "B", "lower"},
	{"noc.offload_cmd_pkts", "count", "lower"},
	{"noc.rdf_pkts", "count", "lower"},
	{"noc.wta_pkts", "count", "lower"},
	{"noc.ack_pkts", "count", "lower"},
	{"noc.inval_pkts", "count", "lower"},
	{"noc.ack_latency_ns_avg", "ns", "lower"},
	{"hmc.intra_bytes", "B", "lower"},
	{"dram.reads", "count", "lower"},
	{"dram.writes", "count", "lower"},
	{"dram.activations", "count", "lower"},
	{"dram.row_hit_rate", "frac", "higher"},
	{"nsu.cycles", "cycles", "lower"},
	{"nsu.instrs", "count", "lower"},
	{"nsu.warps_spawned", "count", "lower"},
	{"nsu.active_cycles", "cycles", "lower"},
	{"nsu.occupancy", "frac", "higher"},
	{"nsu.stall_rdwait", "cycles", "lower"},
	{"timing.sim_time_us", "us", "lower"},
	{"energy.total_uj", "uJ", "lower"},
}

// perLayer is every metric of a traced run, in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range spanNames {
		out = append(out, metricDef{n, "s", "lower"})
	}
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_s", "s", "lower"})
	}
	for _, f := range cpuFuncs {
		out = append(out, metricDef{f.Name, "s", "lower"})
	}
	out = append(out,
		metricDef{"runtime.gc_bg_cpu_s", "s", "lower"},
		metricDef{"sim.host_ns_per_sm_cycle", "ns/cycle", "lower"},
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"trace.uncovered_frac", "frac", "lower"},
		metricDef{"trace.uncovered_frac_max", "frac", "lower"},
	)
	return append(out, countDefs...)
}

// ratio is num/den, or 0 when nothing was counted: a derived rate over an
// empty denominator (no accesses, no acks) reads as zero, never NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counts derives every countDefs metric from one pass's folded statistics.
func counts(st *stats.Stats, energyPJ float64, cfg config.Config) map[string]float64 {
	f := func(v int64) float64 { return float64(v) }
	return map[string]float64{
		"gpu.sm_cycles":                 f(st.SMCycles),
		"gpu.issued_instrs":             f(st.IssuedInstrs),
		"gpu.issue_cycles":              f(st.IssueCycles),
		"gpu.noissue_exec_busy":         f(st.NoIssue[stats.ExecUnitBusy]),
		"gpu.noissue_dep_stall":         f(st.NoIssue[stats.DependencyStall]),
		"gpu.noissue_warp_idle":         f(st.NoIssue[stats.WarpIdle]),
		"core.blocks_seen":              f(st.OffloadBlocksSeen),
		"core.blocks_offloaded":         f(st.OffloadBlocksOffloaded),
		"core.offload_frac":             ratio(f(st.OffloadBlocksOffloaded), f(st.OffloadBlocksSeen)),
		"core.credit_rejects":           f(st.CreditStalls),
		"core.credit_rejects_per_issue": ratio(f(st.CreditStalls), f(st.IssuedInstrs)),
		"core.pending_buf_stalls":       f(st.PendingBufStalls),
		"cache.l1i_accesses":            f(st.L1I.Accesses),
		"cache.l1d_accesses":            f(st.L1D.Accesses),
		"cache.l1d_hit_rate":            ratio(f(st.L1D.Hits), f(st.L1D.Accesses)),
		"cache.l2_accesses":             f(st.L2.Accesses),
		"cache.l2_hit_rate":             ratio(f(st.L2.Hits), f(st.L2.Accesses)),
		"cache.tlb_accesses":            f(st.TLB.Accesses),
		"cache.invalidations":           f(st.L1D.Invalidations + st.L2.Invalidations),
		"cache.rdf_hits":                f(st.RDFCacheHits),
		"noc.gpu_link_bytes":            f(st.Traffic[stats.GPULink]),
		"noc.memnet_bytes":              f(st.Traffic[stats.MemNet]),
		"noc.offload_cmd_pkts":          f(st.OffloadCmdPackets),
		"noc.rdf_pkts":                  f(st.RDFPackets),
		"noc.wta_pkts":                  f(st.WTAPackets),
		"noc.ack_pkts":                  f(st.AckPackets),
		"noc.inval_pkts":                f(st.InvalPackets),
		"noc.ack_latency_ns_avg":        ratio(f(st.AckLatencySumPS), 1e3*f(st.AckLatencyCount)),
		"hmc.intra_bytes":               f(st.Traffic[stats.IntraHMC]),
		"dram.reads":                    f(st.DRAMReads),
		"dram.writes":                   f(st.DRAMWrites),
		"dram.activations":              f(st.DRAMActivations),
		"dram.row_hit_rate":             ratio(f(st.DRAMRowHits), f(st.DRAMReads+st.DRAMWrites)),
		"nsu.cycles":                    f(st.NSUCycles),
		"nsu.instrs":                    f(st.NSUInstrs),
		"nsu.warps_spawned":             f(st.NSUWarpsSpawned),
		"nsu.active_cycles":             f(st.NSUActiveCycles),
		"nsu.occupancy":                 st.NSUOccupancy(cfg.NSU.NumWarps, cfg.NumHMCs),
		"nsu.stall_rdwait":              f(st.NSUStallRDWait),
		"timing.sim_time_us":            f(st.ElapsedPS) / 1e6,
		"energy.total_uj":               energyPJ / 1e6,
	}
}

// workloadDef is one named benchmark workload: a fixed list of legs run one
// after another in one process.
type workloadDef struct {
	Name string
	Legs []leg
}

// leg is one simulation: a Table 1 workload under one offload mode.
type leg struct {
	Abbr string
	Mode sim.Mode
}

// Key names the leg as the golden digests do: workload|mode.
func (l leg) Key() string { return l.Abbr + "|" + l.Mode.Name }

func legsOf(mode sim.Mode, abbrs ...string) []leg {
	out := make([]leg, len(abbrs))
	for i, a := range abbrs {
		out[i] = leg{a, mode}
	}
	return out
}

// benchWorkloads are the benchmark's workloads; README.md records why each
// was chosen and which layer metrics it exercises.
var benchWorkloads = []workloadDef{
	{"baseline-suite", legsOf(sim.Baseline, "BFS", "BICG", "BPROP", "FWT", "KMN", "MINIFE", "SP", "STCL", "STN", "VADD")},
	{"dyn-mixed", legsOf(sim.DynNDP, "KMN", "SP", "FWT", "BPROP", "STN", "VADD")},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
