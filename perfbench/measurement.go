package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"gpusched/internal/gpu"
	"gpusched/internal/sim"
)

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees (BENCHMARK.json
// "end_to_end"); every workload prints all of them. Their times are CPU
// time of the benchmark process (user + system, all threads): on a shared
// host the CPU a run receives changes from minute to minute, and CPU time
// is not charged for the time the host takes away, so these stay
// comparable between runs where wall-clock figures do not.
var endToEnd = []metricDef{
	{"sim_kips", "kinstr/cpu-s"},
	{"req_per_s", "1/cpu-s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// wallClock are the wall-clock counterparts, reported per repetition and
// as per-layer metrics: what a caller waits for, including the time the
// host gives to other tenants.
var wallClock = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"wall.sim_kips", "kinstr/s"},
	{"wall.req_per_s", "1/s"},
	{"wall.setup_s", "s"},
	{"cpu.util", "ratio"},
}

// Units of the per-layer metrics (BENCHMARK.json "per_layer").
const (
	unitShare   = "sampled_share" // from the CPU profile's samples
	unitRatio   = "ratio"
	unitCount   = "count"
	unitMS      = "ms"
	unitCycles  = "cycles"
	setupRounds = 15 // set-ups per run; setup_s is their median
	maxErrors   = 5  // failure messages kept for the report
)

// repetition is one pass (sweeps) or one window (service-mix) of a run.
type repetition struct {
	wallS, cpuS float64 // the repetition's wall time and process CPU time
	instr       uint64  // simulated instructions completed
	latencies   []time.Duration
}

// outcomeAgg sums the counters of the outcomes a run actually simulated.
type outcomeAgg struct {
	activeCycles, instr, issueStall      uint64
	stallScoreboard, stallLDST, stallBar uint64
	l1Acc, l1Hits, l1Misses, l1Merges    uint64
	l2Acc, l2Hits                        uint64
	rowHits, rowMisses                   uint64
	queueSum, queueN                     uint64
	loadCycles, loadWeight               float64
	evictions                            int
}

func (a *outcomeAgg) add(r gpu.Result) {
	a.activeCycles += r.Core.ActiveCycles
	a.instr += r.Core.InstrIssued
	a.issueStall += r.Core.IssueStallCycles
	a.stallScoreboard += r.Core.StallScoreboard
	a.stallLDST += r.Core.StallLDSTFull
	a.stallBar += r.Core.StallBarrier
	a.l1Acc += r.L1.Accesses
	a.l1Hits += r.L1.Hits
	a.l1Misses += r.L1.Misses
	a.l1Merges += r.L1.MSHRMerges
	a.l2Acc += r.L2.Accesses
	a.l2Hits += r.L2.Hits
	a.rowHits += r.DRAM.RowHits
	a.rowMisses += r.DRAM.RowMisses
	a.queueSum += r.DRAM.QueueLatencySum
	a.queueN += r.DRAM.ServicedRequests
	a.loadCycles += r.AvgMemLatency * float64(r.L1.Accesses)
	a.loadWeight += float64(r.L1.Accesses)
	for _, k := range r.Kernels {
		a.evictions += k.Evicted
	}
}

// measurement is everything one measured run of a workload produced.
type measurement struct {
	// mu guards the counters, errs, agg and runSpans while requests run.
	mu         sync.Mutex
	setupS     []float64 // each set-up's CPU seconds
	setupWallS []float64 // each set-up's wall seconds
	buildMS    []float64 // each set-up's kernel-spec build time
	reps       []repetition
	wallS      float64 // measured seconds, all repetitions

	attempted, failed, fresh, repeat int
	errs                             []string

	agg      outcomeAgg
	simStats sim.Stats // summed over every service of the run

	runSpans    []time.Duration // sweeps: each sim.Service.Run call
	shardSpans  []time.Duration // service-mix, traced: shard handler spans
	routerSpans []time.Duration // service-mix, traced: router handler spans
	rejected    int
	fwdErrors   uint64
	failovers   uint64

	shares     map[string]float64 // traced: CPU share per layer
	cpuSamples int64
	allocMB    float64
	gcCount    float64
	peakRSSMB  float64
}

func (m *measurement) fail(msg string) {
	m.failed++
	if len(m.errs) < maxErrors {
		m.errs = append(m.errs, msg)
	}
}

func (m *measurement) errorRatio() float64 {
	return ratio(float64(m.failed), float64(m.attempted))
}

// repValues returns one metric's per-repetition values (per set-up for
// the set-up times).
func (m *measurement) repValues(name string) []float64 {
	switch name {
	case "setup_s":
		return m.setupS
	case "wall.setup_s":
		return m.setupWallS
	case "peak_rss_mb":
		return []float64{m.peakRSSMB}
	}
	var vs []float64
	for _, r := range m.reps {
		n := float64(len(r.latencies))
		switch name {
		case "sim_kips":
			vs = append(vs, ratio(float64(r.instr)/1000, r.cpuS))
		case "req_per_s":
			vs = append(vs, ratio(n, r.cpuS))
		case "wall.sim_kips":
			vs = append(vs, ratio(float64(r.instr)/1000, r.wallS))
		case "wall.req_per_s":
			vs = append(vs, ratio(n, r.wallS))
		case "latency_p50_ms":
			vs = append(vs, percentileMS(r.latencies, 50))
		case "latency_p99_ms":
			vs = append(vs, percentileMS(r.latencies, 99))
		case "cpu.util":
			vs = append(vs, ratio(r.cpuS, r.wallS*float64(runtime.NumCPU())))
		}
	}
	return vs
}

// endToEnd is the untraced result: each end-to-end metric's median over
// the run's repetitions.
func (m *measurement) endToEnd() result {
	res := result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: median(m.repValues(d.name)), Unit: d.unit}
	}
	return res
}

// perLayer is the traced result: the per-layer metrics (the caller adds
// the tracing overhead).
func (m *measurement) perLayer() result {
	res := result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metricValue{},
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unit} }
	a, st := m.agg, m.simStats

	for _, d := range wallClock {
		put(d.name, d.unit, median(m.repValues(d.name)))
	}
	put("gpu.loop_s", "s", st.WallSeconds)
	put("gpu.ns_per_simcycle", "ns", ratio(st.WallSeconds*1e9, float64(st.SimCycles)))
	put("gpu.overlap", unitRatio, ratio(st.WallSeconds, m.wallS))
	put("gpu.parexec_cpu_share", unitShare, m.shares["gpu.parexec"])
	for _, l := range []string{"gpu", "sm", "mem", "workloads", "core", "runtime", "other"} {
		put(l+".cpu_share", unitShare, m.shares[l])
	}
	put("trace.cpu_samples", unitCount, float64(m.cpuSamples))

	put("sm.issue_stall_ratio", unitRatio, ratio(float64(a.issueStall), float64(a.activeCycles)))
	put("sm.stall_scoreboard_ratio", unitRatio, ratio(float64(a.stallScoreboard), float64(a.activeCycles)))
	put("sm.stall_ldst_ratio", unitRatio, ratio(float64(a.stallLDST), float64(a.activeCycles)))
	put("sm.stall_barrier_ratio", unitRatio, ratio(float64(a.stallBar), float64(a.activeCycles)))
	put("sm.instr", unitCount, float64(a.instr))

	put("mem.l1_hit_ratio", unitRatio, ratio(float64(a.l1Hits), float64(a.l1Acc)))
	put("mem.l1_merge_ratio", unitRatio, ratio(float64(a.l1Merges), float64(a.l1Misses)))
	put("mem.l2_hit_ratio", unitRatio, ratio(float64(a.l2Hits), float64(a.l2Acc)))
	put("mem.dram_row_hit_ratio", unitRatio, ratio(float64(a.rowHits), float64(a.rowHits+a.rowMisses)))
	put("mem.dram_queue_cycles", unitCycles, ratio(float64(a.queueSum), float64(a.queueN)))
	put("mem.avg_load_cycles", unitCycles, ratio(a.loadCycles, a.loadWeight))

	put("workloads.build_ms", unitMS, median(m.buildMS))
	put("core.evictions", unitCount, float64(a.evictions))
	put("runtime.alloc_mb", "MB", m.allocMB)
	put("runtime.gc_count", unitCount, m.gcCount)

	hits := st.MemoHits + st.DiskHits + st.PeerHits
	put("sim.simulated", unitCount, float64(st.Simulated))
	put("sim.memo_hits", unitCount, float64(st.MemoHits))
	put("sim.disk_hits", unitCount, float64(st.DiskHits))
	put("sim.hit_ratio", unitRatio, ratio(float64(hits), float64(hits+st.Simulated)))
	put("sim.run_p50_ms", unitMS, percentileMS(m.runSpans, 50))
	put("sim.run_p99_ms", unitMS, percentileMS(m.runSpans, 99))

	shardMS, routerMS := sumMS(m.shardSpans), sumMS(m.routerSpans)
	put("server.handler_p50_ms", unitMS, percentileMS(m.shardSpans, 50))
	put("server.handler_p99_ms", unitMS, percentileMS(m.shardSpans, 99))
	put("server.self_ms", unitMS, ratio(shardMS-st.WallSeconds*1e3, float64(len(m.shardSpans))))
	put("server.rejected", unitCount, float64(m.rejected))
	put("fleet.handler_p50_ms", unitMS, percentileMS(m.routerSpans, 50))
	put("fleet.self_ms", unitMS, ratio(routerMS-shardMS, float64(len(m.routerSpans))))
	put("fleet.forward_errors", unitCount, float64(m.fwdErrors))
	put("fleet.failovers", unitCount, float64(m.failovers))

	put("error_ratio", unitRatio, m.errorRatio())
	return res
}

// report is the detailed record of the run.
func (m *measurement) report(o options) report {
	r := report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Host: thisHost(), Repetitions: len(m.reps),
		Metrics: map[string]summary{}, Units: map[string]string{},
		ErrorRatio: m.errorRatio(), Attempted: m.attempted, Failed: m.failed,
		Fresh: m.fresh, Repeat: m.repeat, Errors: m.errs,
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), wallClock...) {
		r.Metrics[d.name] = summarize(m.repValues(d.name))
		r.Units[d.name] = d.unit
	}
	return r
}

// window brackets a run's measured interval: it always takes the memory
// statistics, and when tracing it records a CPU profile.
type window struct {
	traced bool
	ms0    runtime.MemStats
	prof   bytes.Buffer
}

func startWindow(traced bool) (*window, error) {
	w := &window{traced: traced}
	runtime.ReadMemStats(&w.ms0)
	if traced {
		if err := pprof.StartCPUProfile(&w.prof); err != nil {
			return nil, fmt.Errorf("starting cpu profile: %w", err)
		}
	}
	return w, nil
}

func (w *window) stop(m *measurement) error {
	if w.traced {
		pprof.StopCPUProfile()
		shares, n, err := cpuShares(w.prof.Bytes())
		if err != nil {
			return err
		}
		m.shares, m.cpuSamples = shares, n
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.allocMB = float64(ms1.TotalAlloc-w.ms0.TotalAlloc) / (1 << 20)
	m.gcCount = float64(ms1.NumGC - w.ms0.NumGC)
	return nil
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the CPU time the process has used so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
