// Package gpu wires the simulator together: an array of SMs, the shared
// memory system, a launch table of kernels, and a CTA-scheduling Dispatcher
// from internal/core. It owns the cycle loop and produces the Result record
// the experiment harness consumes.
package gpu

import (
	"context"
	"fmt"
	"runtime"

	"gpusched/internal/core"
	"gpusched/internal/gpu/parexec"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
)

// Config is the whole-GPU configuration.
type Config struct {
	// NumCores is the SM count.
	NumCores int
	// Core is the per-SM configuration (copied per SM).
	Core sm.Config
	// Mem is the shared memory-system configuration.
	Mem mem.Config
	// MaxCycles aborts runaway simulations; Result.TimedOut is set.
	// Zero means DefaultMaxCycles.
	MaxCycles uint64
	// DisableFastForward forces the reference cycle-by-cycle loop, never
	// skipping provably-idle stretches. Results are bit-identical either
	// way — the flag exists so tests can prove exactly that, and so
	// suspected fast-forward bugs can be bisected against the reference.
	DisableFastForward bool
	// Workers is how many OS threads tick the SMs (phase A of the two-phase
	// tick) and the memory partitions (phase A2) each cycle. 0 derives the
	// count from GOMAXPROCS; 1 is the serial reference path. The count is
	// execution-only: results are byte-identical for every value (the
	// golden determinism tests diff worker counts against each other), so
	// it never enters a cache key.
	Workers int
}

// ResolveWorkers maps a Config.Workers value to the machine-derived worker
// count before the per-instance SM clamp: zero and negative mean GOMAXPROCS.
// Daemons use it to report the effective value of the knob they were
// configured with (the gpuschedd_sim_workers gauge).
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// resolveWorkers maps Config.Workers to the effective phase-A shard count:
// GOMAXPROCS-derived when unset, never more than one shard per SM.
func (c *Config) resolveWorkers() int {
	w := ResolveWorkers(c.Workers)
	if w > c.NumCores {
		w = c.NumCores
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MaxCores is the largest SM count New accepts: the memory system's
// response routing carries the core index in 8 bits.
const MaxCores = 255

// DefaultMaxCycles is the runaway-simulation cap applied when
// Config.MaxCycles is zero — the single definition every layer shares.
const DefaultMaxCycles uint64 = 20_000_000

// minParkCycles is the parking threshold: an SM leaves the activity set only
// when it can prove at least this many quiet cycles ahead. Small enough that
// short stalls still park, large enough that an SM bouncing on 1–2 cycle
// hazards stays on the active list instead of churning the wake heap.
// Parking is semantically inert, so the value only moves wall time.
const minParkCycles = 4

// DefaultConfig returns the Fermi-class (GTX480 ballpark) GPU used by the
// paper-reproduction experiments: 15 SMs, 2 schedulers each, 6 memory
// partitions.
func DefaultConfig() Config {
	return Config{
		NumCores:  15,
		Core:      sm.DefaultConfig(),
		Mem:       mem.DefaultConfig(),
		MaxCycles: DefaultMaxCycles,
	}
}

// addrSpaceStride separates kernel global address spaces: lane addresses
// are 32-bit offsets, so 8 GiB spacing guarantees no aliasing while keeping
// cache index bits undisturbed.
const addrSpaceStride = uint64(1) << 33

// Result summarizes one simulation.
type Result struct {
	// Cycles is the total simulated time (launch of first kernel to
	// retirement of the last CTA).
	Cycles uint64
	// TimedOut is set when MaxCycles aborted the run.
	TimedOut bool
	// InstrIssued and ThreadInstr aggregate issue counts over all cores.
	InstrIssued uint64
	ThreadInstr uint64
	// IPC is InstrIssued / Cycles.
	IPC float64
	// Core sums the per-SM pipeline counters.
	Core stats.Core
	// L1 sums the per-SM L1 counters; L2 and DRAM aggregate the shared
	// hierarchy.
	L1   stats.Cache
	L2   stats.Cache
	DRAM stats.DRAM
	// AvgMemLatency is the mean load round-trip in cycles (issue to last
	// transaction), averaged over cores weighted by load count.
	AvgMemLatency float64
	// Kernels holds per-kernel makespans and issue counts, launch order.
	Kernels []stats.Kernel
}

// GPU is one simulated device with a fixed launch table.
//
// GPU is shared state for the two-phase tick: phase-A code (anything
// reachable from SM.Tick or a shard visit) must not mutate it except
// through the declared staging sinks (onCTADone, onCTADrained, the visit
// closure's per-core probe throttles) — gpulint phasepurity enforces this.
//
//gpulint:shared
type GPU struct {
	cfg        Config
	cores      []*sm.SM
	memsys     *mem.System
	dispatcher core.Dispatcher
	kernels    []*core.KernelState
	now        uint64
	doneCount  int
	// observer, when set, sees every CTA retirement (experiment probes).
	observer func(coreID int, cta *sm.CTA, now uint64)
	coreCfgs []sm.Config
	// epochFn, when set, runs every epochEvery cycles (tracing hooks).
	epochFn    func(now uint64)
	epochEvery uint64
	// ctaEvent records that a CTA retired during the current cycle; with
	// the placement and issue counters it decides whether the cycle was
	// idle and the loop may consult the event horizon.
	ctaEvent bool
	// arrived is how many launch-table kernels have reached their Arrival
	// cycle; Kernels() exposes exactly that prefix to dispatchers.
	arrived int
	// pendingRetire[c] collects core c's CTA retirements during phase A of
	// a cycle. A core's SM appends only to its own list (so cores may tick
	// concurrently); commitRetirements replays every list serially in
	// core-index order before the memory system ticks, so the dispatcher,
	// the observer, and the kernel bookkeeping see retirements in one fixed
	// order whatever the phase-A interleaving was.
	pendingRetire [][]*sm.CTA
	// pendingPreempt[c] collects core c's drain evictions during phase A,
	// mirroring pendingRetire: the SM appends only to its own list, and
	// commitPreemptions replays every list serially in core-index order
	// right after commitRetirements. Re-dispatch order after eviction is
	// therefore a deterministic FIFO keyed by (eviction cycle, core index)
	// whatever the phase-A worker interleaving was.
	pendingPreempt [][]*sm.CTA
	// ffNextTry/ffBackoff throttle horizon probes. Probing costs real work
	// (every scheduler and memory queue is consulted), so an attempt that
	// finds nothing to skip doubles the wait before the next attempt; a
	// productive skip resets it. Busy phases therefore pay a bounded,
	// vanishing probe overhead while stall phases skip at full fidelity.
	ffNextTry uint64
	ffBackoff uint64
	// activity tracks which SMs have ready work this cycle (built by
	// RunContext, nil before). Sleeping SMs are skipped by phase A entirely;
	// wakeCore is the only way back in.
	activity *parexec.ActivitySet
	// probeAt[i]/probeBO[i] throttle core i's sleep probes, mirroring
	// ffNextTry/ffBackoff: an SM that stalls without being parkable doubles
	// the wait before its next NextEvent probe, and a successful park resets
	// it. Written only by the shard that owns core i during phase A.
	probeAt []uint64
	probeBO []uint64
	// postTick is true between phase A and the end of the cycle (commits and
	// the memory tick). wakeCore uses it to pick the sync boundary: once
	// phase A has run, a sleeping core provably accounts for the current
	// cycle too, and cannot tick again before the next one.
	postTick bool
}

// New builds a GPU running specs (in launch order) under dispatcher d.
// Every spec must validate and fit on an SM.
func New(cfg Config, d core.Dispatcher, specs ...*kernel.Spec) (*GPU, error) {
	if cfg.NumCores <= 0 {
		return nil, fmt.Errorf("gpu: NumCores = %d", cfg.NumCores)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("gpu: no kernels")
	}
	if cfg.NumCores > MaxCores {
		return nil, fmt.Errorf("gpu: NumCores %d exceeds response-routing width", cfg.NumCores)
	}
	g := &GPU{cfg: cfg, dispatcher: d}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if n, binding := cfg.Core.Limits.MaxResident(spec); n == 0 {
			return nil, fmt.Errorf("gpu: kernel %s does not fit one SM (%s)", spec.Name, binding)
		}
		if i > 0 && spec.Arrival < specs[i-1].Arrival {
			// Arrived kernels are always a prefix of the launch table, so
			// dispatchers can keep indexing kernels by launch position.
			return nil, fmt.Errorf("gpu: kernel %s arrives at %d, before its predecessor (%d); arrivals must be nondecreasing in launch order",
				spec.Name, spec.Arrival, specs[i-1].Arrival)
		}
		g.kernels = append(g.kernels, &core.KernelState{
			Spec:     spec,
			Idx:      i,
			AddrBase: uint64(i+1) * addrSpaceStride,
		})
	}
	g.memsys = mem.NewSystem(&cfg.Mem, cfg.NumCores)
	g.pendingRetire = make([][]*sm.CTA, cfg.NumCores)
	g.pendingPreempt = make([][]*sm.CTA, cfg.NumCores)
	g.cores = make([]*sm.SM, cfg.NumCores)
	g.coreCfgs = make([]sm.Config, cfg.NumCores)
	for i := range g.cores {
		g.coreCfgs[i] = cfg.Core // per-SM copy: SetWarpPolicy is per core
		g.cores[i] = sm.New(i, &g.coreCfgs[i], g.memsys, len(specs), g.onCTADone)
		g.cores[i].SetDrainHandler(g.onCTADrained)
		g.cores[i].SetWakeHandler(g.wakeCore)
	}
	g.memsys.SetResponseHook(g.wakeCore)
	return g, nil
}

// wakeCore is the single wake funnel: the SMs' pre-mutation notification
// (AddCTA, and Preempt below) and the memory system's response-delivery hook
// both land here, always in a serial phase. It settles the target core's
// lazily-accrued counters up to the current stage boundary — callers invoke
// it *before* mutating the core, while the parked window is still provably
// quiet — then lowers the core's wake bound so the skipped SM rejoins
// phase A in time. Waking an active core is a harmless no-op.
//
//gpulint:phaseb wake/sync runs in serial phases only; a phase-A caller would race the wake heap and the watermark
func (g *GPU) wakeCore(coreID int, at uint64) {
	sync, wake := at, at
	if g.postTick {
		// Phase A for cycle g.now already ran: the core either ticked this
		// cycle or slept through it (its wake bound is beyond g.now), so
		// cycle g.now is provably accounted for — settle through it while
		// that proof still holds, and wake no earlier than the next cycle.
		sync = g.now + 1
		if wake <= g.now {
			wake = g.now + 1
		}
	}
	g.cores[coreID].SyncTo(sync)
	if g.activity != nil {
		g.activity.Wake(coreID, wake)
	}
}

// syncAllTo settles every core's lazily-accrued counters through cycle t
// (exclusive) — the serial-phase barrier before any consumer that may read a
// sleeping core's Stats: the dispatcher when it is due to act, commit
// callbacks, the epoch hook, and final collection. Cores already synced past
// t are untouched.
//
//gpulint:phaseb the serial-phase sync barrier; running it during phase A would race the cores it settles
func (g *GPU) syncAllTo(t uint64) {
	for _, c := range g.cores {
		c.SyncTo(t)
	}
}

// havePendingCommits reports whether any core recorded a retirement or drain
// eviction this cycle — the trigger for settling sleepers before the commit
// callbacks (observer, dispatcher probes) run.
func (g *GPU) havePendingCommits() bool {
	for c := range g.pendingRetire {
		if len(g.pendingRetire[c]) > 0 || len(g.pendingPreempt[c]) > 0 {
			return true
		}
	}
	return false
}

// SetObserver registers an experiment probe called on every CTA retirement
// (before the dispatcher sees it). Must be set before Run.
func (g *GPU) SetObserver(fn func(coreID int, cta *sm.CTA, now uint64)) {
	g.observer = fn
}

// SetEpochHook registers fn to run every `every` cycles during Run (cycle 0
// included) — the sampling hook the timeline tracer uses. Must be set
// before Run.
func (g *GPU) SetEpochHook(every uint64, fn func(now uint64)) {
	if every == 0 {
		every = 1024
	}
	g.epochEvery = every
	g.epochFn = fn
}

// MemSystem exposes the shared memory hierarchy (tracing and tests).
func (g *GPU) MemSystem() *mem.System { return g.memsys }

// Now implements core.Machine.
func (g *GPU) Now() uint64 { return g.now }

// NumCores implements core.Machine.
func (g *GPU) NumCores() int { return len(g.cores) }

// Core implements core.Machine.
func (g *GPU) Core(i int) *sm.SM { return g.cores[i] }

// Kernels implements core.Machine. It returns only the kernels that have
// arrived: g.kernels holds the full launch table, and because arrivals are
// validated nondecreasing the arrived set is always a prefix, so the slice
// header is the whole gate — no per-call allocation, and launch-position
// indexing stays valid for dispatchers.
func (g *GPU) Kernels() []*core.KernelState { return g.kernels[:g.arrived] }

// admitArrivals moves newly arrived kernels into the dispatchers' view of
// the launch table. An admission changes dispatch state, so the cycle is
// marked non-idle (fast-forward additionally clamps its horizon to the next
// pending arrival, so no admission cycle is ever skipped).
func (g *GPU) admitArrivals() {
	for g.arrived < len(g.kernels) && g.kernels[g.arrived].Spec.Arrival <= g.now {
		g.arrived++
		g.ctaEvent = true
	}
}

// Preempt implements core.Machine: it asks core coreID to drain cta for
// preemption. The request is accepted only for a resident, running CTA (a
// natural completion that raced the request loses it harmlessly). The
// eviction itself lands later, through the phase-B preemption commit.
func (g *GPU) Preempt(coreID int, cta *sm.CTA) bool {
	if coreID < 0 || coreID >= len(g.cores) {
		return false
	}
	// Settle and wake before the drain flag lands: the drain changes what a
	// replayed stall window would look like, so the window must close first.
	// If the request is refused the spurious wake costs one visit.
	g.wakeCore(coreID, g.now)
	return g.cores[coreID].DrainCTA(cta)
}

// onCTADone is the SMs' retirement callback. It may run on a phase-A worker
// goroutine, so it only records the event in the retiring core's private
// list; every side effect that touches shared state happens in
// commitRetirements, serially.
//
//gpulint:staged appends only to the retiring core's own pendingRetire list
func (g *GPU) onCTADone(coreID int, cta *sm.CTA) {
	g.pendingRetire[coreID] = append(g.pendingRetire[coreID], cta)
}

// onCTADrained is the SMs' drain-eviction callback — same phase-A discipline
// as onCTADone: record in the core's private list, commit serially later.
//
//gpulint:staged appends only to the draining core's own pendingPreempt list
func (g *GPU) onCTADrained(coreID int, cta *sm.CTA) {
	g.pendingPreempt[coreID] = append(g.pendingPreempt[coreID], cta)
}

// commitRetirements replays the cycle's CTA retirements strictly in
// core-index order (and, within a core, retirement order): kernel completion
// bookkeeping, the experiment observer, then the dispatcher's
// OnCTAComplete probe — the same per-CTA sequence the serial path has always
// run, now at a fixed point of the cycle (after every core ticked, before
// the memory system ticks).
//
//gpulint:phaseb replays shared-state side effects after the phase-A barrier
func (g *GPU) commitRetirements() {
	for c := range g.pendingRetire {
		list := g.pendingRetire[c]
		if len(list) == 0 {
			continue
		}
		// Detach the list while replaying: no current callback retires a CTA
		// synchronously, but if one ever does, the onCTADone append must not
		// land in list's backing array, where the reset below would silently
		// discard it. Same-core re-entrant retirement is caught by the length
		// check after the loop; appends for other cores land in their own
		// (restored) buffers and replay in this or the next cycle's commit.
		g.pendingRetire[c] = nil
		for i, cta := range list {
			g.ctaEvent = true
			ks := g.kernels[cta.KernelIdx]
			ks.Completed++
			if ks.Done() {
				ks.DoneCycle = g.now
				g.doneCount++
			}
			if g.observer != nil {
				g.observer(c, cta, g.now)
			}
			g.dispatcher.OnCTAComplete(g, c, cta)
			// Every shared-state consumer of this retirement has now run, so
			// the context can go back to its core's pool. A placement made by
			// a later callback this same cycle may already reuse it.
			g.cores[c].Recycle(cta)
			list[i] = nil
		}
		if len(g.pendingRetire[c]) != 0 {
			panic("gpu: retirement callback retired a CTA for the same core re-entrantly; commitRetirements cannot replay it this cycle")
		}
		g.pendingRetire[c] = list[:0]
	}
}

// commitPreemptions replays the cycle's drain evictions strictly in
// core-index order (and, within a core, eviction order), after retirements
// and before the memory system ticks: the evicted CTA id joins its kernel's
// re-dispatch queue, per-kernel eviction counters advance, and a dispatcher
// implementing PreemptionObserver is notified. Because this is the only
// place evictions touch shared state, the requeue order is a pure function
// of (eviction cycle, core index) — independent of phase-A interleaving.
//
//gpulint:phaseb replays shared-state side effects after the phase-A barrier
func (g *GPU) commitPreemptions() {
	po, _ := g.dispatcher.(core.PreemptionObserver)
	for c := range g.pendingPreempt {
		list := g.pendingPreempt[c]
		if len(list) == 0 {
			continue
		}
		g.pendingPreempt[c] = nil
		for i, cta := range list {
			// An eviction changes dispatch state (capacity freed, requeue
			// grown), so the cycle is never idle for fast-forward purposes.
			g.ctaEvent = true
			ks := g.kernels[cta.KernelIdx]
			ks.Requeue(cta.ID)
			if po != nil {
				po.OnCTAEvicted(g, c, cta)
			}
			// Eviction guarantees memRefs == 0, so the context pools
			// immediately; the re-dispatch builds a fresh CTA from the id.
			g.cores[c].Recycle(cta)
			list[i] = nil
		}
		if len(g.pendingPreempt[c]) != 0 {
			panic("gpu: eviction callback drained a CTA for the same core re-entrantly; commitPreemptions cannot replay it this cycle")
		}
		g.pendingPreempt[c] = list[:0]
	}
}

// Run simulates to completion (or MaxCycles) and returns the result.
// A GPU is single-shot: Run must be called once.
func (g *GPU) Run() Result {
	res, _ := g.RunContext(context.Background())
	return res
}

// ctxCheckInterval is how often (in cycles) RunContext polls for
// cancellation — rare enough to keep the cycle loop hot, frequent enough
// that cancellation lands within microseconds of wall time.
const ctxCheckInterval = 4096

// parallelMinRunnable is the smallest phase-A population worth a barrier
// crossing: below it the shards run inline on the caller's goroutine (same
// shard split, same visit order within a shard, so results are unchanged).
// A stall phase with one or two live SMs must not pay a park/wake round trip
// per cycle just because eight workers were configured.
const parallelMinRunnable = 6

// maxProbeBackoff bounds the per-SM sleep-probe backoff (see probeAt/probeBO
// on GPU), for the same reason maxFFBackoff bounds the global one: when a
// busy phase ends, the SM must start parking again within a few dozen cycles.
const maxProbeBackoff = 64

// minParallelParts is the smallest live-partition population worth a
// phase-A2 barrier crossing: below it the memory system ticks serially on
// the caller's goroutine (same shard split, same per-partition order, so
// results are unchanged). A tail phase with one busy DRAM channel must not
// pay a pool release/join per cycle.
const minParallelParts = 4

// RunContext is Run with cooperative cancellation: when ctx is canceled
// the cycle loop stops mid-flight and the context's error is returned
// alongside the partial result.
//
// Each cycle is two phases. Phase A ticks the SMs with ready work —
// concurrently over a persistent worker pool when Config.Workers allows and
// enough SMs are runnable, serially otherwise; either way each SM confines
// itself to core-private state (its pipeline, its L1, its staging slot in
// the memory system, its retirement list). Phase B is always serial: CTA
// retirements replay in core-index order, then the memory system commits the
// staged traffic and ticks. The committed state is a pure function of the
// request, independent of worker count and interleaving (the golden
// determinism tests diff worker counts byte-for-byte).
//
// Which SMs have ready work is tracked by an activity set (parexec): after
// ticking, an SM that issued nothing and can prove at least minParkCycles
// quiet cycles ahead parks in its shard's wake heap and is skipped — not
// visited at all — until its wake cycle arrives or an external event (CTA
// placement, drain request, memory response) lowers its bound through
// wakeCore. The
// skipped cycles' ActiveCycles and stall counters accrue lazily: each SM
// carries a synced-through watermark and replays the gap in one FastForward
// the next time it runs (or when a serial-phase reader forces syncAllTo).
// Parking is semantically inert — the park/wake decisions are pure per-SM
// functions — so results are byte-identical whether or not an SM parks; the
// golden determinism tests diff worker counts and the reference loop
// against each other.
//
// The loop runs cycle-by-cycle while anything happens. After a cycle in
// which no CTA was placed or retired and no instruction issued, it asks
// every component for its event horizon — the earliest future cycle at
// which it can act — and jumps straight there. Sleeping SMs contribute
// their wake bounds through the activity set's heap minimum instead of
// being probed individually, so the probe cost scales with the live set.
// The jump is exact, not approximate: every NextEvent bound is conservative
// and the skipped window is provably frozen, so results are bit-identical
// to the reference loop (Config.DisableFastForward selects it; the golden
// determinism tests diff the two). Horizon probes always run serially, on
// the fully merged post-commit state.
func (g *GPU) RunContext(ctx context.Context) (Result, error) {
	maxCycles := g.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	ff, _ := g.dispatcher.(core.FastForwarder)
	if g.cfg.DisableFastForward {
		ff = nil
	}
	// Parking rides on the same proof machinery as fast-forward: without a
	// FastForwarder the parked-window replay has no dispatcher bound, so the
	// reference configuration keeps every SM in the active set permanently.
	sleepOK := ff != nil
	workers := g.cfg.resolveWorkers()
	as := parexec.NewActivitySet(len(g.cores), workers)
	g.activity = as
	g.probeAt = make([]uint64, len(g.cores))
	g.probeBO = make([]uint64, len(g.cores))
	// visit ticks one SM for the current cycle and returns its next wake
	// bound: <= now+1 keeps it active, anything later parks it. It runs on
	// phase-A workers but touches only core i's private state (the probe
	// throttle arrays are per-core, the response pipe is core-private, and
	// g.now is ordered by the pool's release/join edges).
	//
	//gpulint:staged the probe throttle slots probeAt[i]/probeBO[i] are owned by core i's shard; no cross-core state is touched
	visit := func(i int) uint64 {
		c := g.cores[i]
		before := c.Stats.InstrIssued
		now := g.now
		c.Tick(now)
		if !sleepOK || c.Stats.InstrIssued != before || now < g.probeAt[i] {
			return 0 // issued or probe-throttled: stay active
		}
		// The SM stalled this cycle; ask whether the stall provably extends
		// at least minParkCycles. Its own bound covers pipeline and L1/LDST
		// state; the response pipe bound covers replies already in flight
		// toward it (later deliveries wake it through the response hook).
		wake := c.NextEvent(now + 1)
		if rv := g.memsys.ResponseNextReady(i); rv < wake {
			wake = rv
		}
		if wake >= now+1+minParkCycles {
			g.probeAt[i], g.probeBO[i] = 0, 0
			return wake
		}
		if g.probeBO[i] < maxProbeBackoff {
			g.probeBO[i] = max2(2*g.probeBO[i], 2)
		}
		g.probeAt[i] = now + g.probeBO[i]
		return 0
	}
	tickShard := func(shard int) { as.TickShard(shard, g.now, visit) }
	var pool *parexec.Pool
	if workers > 1 {
		pool = parexec.New(workers)
		defer pool.Close()
	}
	// One memory shard per worker, never more than one per partition, so
	// pool shard w ticks at most memory shard w — a pure function of
	// (w, workers, partitions); the partition→worker mapping never depends
	// on scheduling.
	memShards := min(workers, g.cfg.Mem.Partitions)
	g.memsys.SetShards(memShards)
	memShardFn := func(shard int) {
		if shard < memShards {
			g.memsys.TickShard(shard, g.now)
		}
	}
	done := ctx.Done()
	for g.doneCount < len(g.kernels) && g.now < maxCycles {
		if done != nil && g.now%ctxCheckInterval == 0 {
			select { //gpulint:allow nogoroutine cancellation poll only aborts the run; a canceled simulation returns an error and is never cached or reported
			case <-done:
				g.syncAllTo(g.now)
				return g.collect(), ctx.Err()
			default:
			}
		}
		if g.epochFn != nil && g.now%g.epochEvery == 0 {
			if as.Sleeping() > 0 {
				g.syncAllTo(g.now) // the hook may read any core's counters
			}
			g.epochFn(g.now)
		}
		dispatched := g.dispatchedCTAs()
		issued := g.issuedTotal()
		g.ctaEvent = false
		g.admitArrivals()
		if sleepOK && as.Sleeping() > 0 && ff.NextDispatchEvent(g.now) <= g.now {
			// The dispatcher acts this cycle and may read per-core counters
			// (DynCTA's epoch adjustment does); settle the sleepers first.
			// Every sleeper's wake bound is beyond the last ticked cycle, so
			// the replayed window is provably quiet.
			g.syncAllTo(g.now)
		}
		g.dispatcher.Tick(g)
		if pool != nil && as.Runnable(g.now) >= parallelMinRunnable {
			pool.Run(tickShard)
		} else {
			// Inline phase A: same shards, same order, no barrier. This is
			// the common path late in a run and in deep stall phases, where
			// one or two live SMs don't amortize a pool release/join.
			for s := 0; s < as.Shards(); s++ {
				as.TickShard(s, g.now, visit)
			}
		}
		g.postTick = true
		if as.Sleeping() > 0 && g.havePendingCommits() {
			// Commit callbacks (the observer, dispatcher probes) may read
			// any core's counters; settle sleepers through this cycle —
			// phase A just proved they slept through it.
			g.syncAllTo(g.now + 1)
		}
		g.commitRetirements()
		g.commitPreemptions()
		if pool != nil && g.memsys.LiveParts() >= minParallelParts {
			// Phase A2: the partitions tick concurrently on the same pool,
			// each confined to partition-owned state, then the staging cells
			// fold serially. Identical statements to the serial path in an
			// identical per-partition order, so results cannot differ.
			pool.Run(memShardFn)
			g.memsys.TickMerge()
		} else {
			g.memsys.Tick(g.now)
		}
		idle := ff != nil && !g.ctaEvent &&
			g.dispatchedCTAs() == dispatched && g.issuedTotal() == issued
		g.now++
		g.postTick = false
		if idle && g.now >= g.ffNextTry {
			if skipped := g.fastForward(ff, done != nil, maxCycles); skipped == 0 {
				if g.ffBackoff < maxFFBackoff {
					g.ffBackoff = max2(2*g.ffBackoff, 2)
				}
				g.ffNextTry = g.now + g.ffBackoff
			} else {
				g.ffBackoff = 0
			}
		}
	}
	g.syncAllTo(g.now)
	return g.collect(), nil
}

// dispatchedCTAs sums placement counts over the launch table; a delta
// across a cycle means the dispatcher placed work. Placed (not NextCTA)
// also counts re-dispatches of evicted CTAs, which pop the requeue without
// advancing NextCTA.
func (g *GPU) dispatchedCTAs() int {
	n := 0
	for _, ks := range g.kernels {
		n += ks.Placed
	}
	return n
}

// issuedTotal sums issued instructions over all cores.
func (g *GPU) issuedTotal() uint64 {
	var n uint64
	for _, c := range g.cores {
		n += c.Stats.InstrIssued
	}
	return n
}

// maxFFBackoff bounds the probe backoff so a long busy phase ending in a
// deep stall starts skipping again within a few hundred cycles. Only a
// probe that skips nothing at all grows the backoff: memory round trips
// ripple through the pipeline in short (1–4 cycle) hops between the long
// DRAM windows, and punishing those small-but-real jumps starves the skip
// chain exactly where it pays most.
const maxFFBackoff = 256

func max2(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// fastForward jumps g.now to the machine's event horizon: the earliest
// cycle at which the dispatcher, any core, or the memory hierarchy can act.
// The skipped window [g.now, horizon) is provably frozen — the previous
// cycle did nothing and no component wakes inside it — so each core merely
// accrues the stall counters its Tick would have produced. The horizon is
// clamped so no epoch-hook cycle (and, when cancellation is armed, no
// context-check cycle) falls strictly inside the skipped window, and never
// exceeds maxCycles: the cap cycle itself is never executed, matching the
// reference loop's exit arithmetic. Returns how many cycles were skipped.
//
//gpulint:hotpath
func (g *GPU) fastForward(ff core.FastForwarder, clampCtx bool, maxCycles uint64) uint64 {
	from := g.now
	horizon := ff.NextDispatchEvent(from)
	if g.arrived < len(g.kernels) {
		// A pending kernel arrival changes dispatch state; its cycle must
		// execute, not be skipped.
		if a := g.kernels[g.arrived].Spec.Arrival; a < horizon {
			horizon = a
		}
	}
	if ev := g.memsys.NextEvent(from); ev < horizon {
		horizon = ev
	}
	// Sleeping SMs contribute through the activity set's heap minimum — one
	// comparison for the whole parked population instead of a NextEvent probe
	// each. A sleeper's bound can only move earlier through wakeCore, which
	// runs in serial phases, so the heap is current here.
	if hv := g.activity.Horizon(); hv < horizon {
		horizon = hv
	}
	if horizon <= from {
		return 0
	}
	stop := false
	g.activity.Actives(func(i int) bool {
		if ev := g.cores[i].NextEvent(from); ev < horizon {
			horizon = ev
		}
		stop = horizon <= from
		return !stop
	})
	if stop {
		return 0
	}
	if horizon > maxCycles {
		horizon = maxCycles
	}
	if g.epochFn != nil {
		horizon = clampToBoundary(horizon, from, g.epochEvery)
	}
	if clampCtx {
		horizon = clampToBoundary(horizon, from, ctxCheckInterval)
	}
	if horizon <= from {
		return 0
	}
	// Only the live set accrues eagerly; sleepers stay lazy (their watermark
	// replay covers the same window when they next run). The horizon never
	// reaches a sleeper's wake cycle, so no parked SM oversleeps the jump.
	g.activity.Actives(func(i int) bool {
		g.cores[i].SyncTo(horizon)
		return true
	})
	g.now = horizon
	return horizon - from
}

// clampToBoundary caps horizon so that no multiple of every lies in
// [from, horizon): boundary cycles run hooks at the top of the loop, so
// they must be executed, not skipped. A boundary at horizon itself is fine
// — that cycle executes.
func clampToBoundary(horizon, from, every uint64) uint64 {
	next := from + (every-from%every)%every
	if next < horizon {
		return next
	}
	return horizon
}

//gpulint:synced RunContext runs syncAllTo(g.now) before both collect call sites, so every core's lazy counters are settled
func (g *GPU) collect() Result {
	r := Result{
		Cycles:   g.now,
		TimedOut: g.doneCount < len(g.kernels),
	}
	var latSum, latN uint64
	for _, c := range g.cores {
		s := c.Stats
		r.Core.ActiveCycles += s.ActiveCycles
		r.Core.InstrIssued += s.InstrIssued
		r.Core.ThreadInstr += s.ThreadInstr
		r.Core.IssueStallCycles += s.IssueStallCycles
		r.Core.StallScoreboard += s.StallScoreboard
		r.Core.StallLDSTFull += s.StallLDSTFull
		r.Core.StallBarrier += s.StallBarrier
		r.Core.StallDrain += s.StallDrain
		r.Core.CTAsCompleted += s.CTAsCompleted
		r.Core.CTAsDrained += s.CTAsDrained
		r.Core.SharedAccesses += s.SharedAccesses
		r.Core.SharedConflictPasses += s.SharedConflictPasses
		r.L1.Add(c.L1Stats())
		sum, n := c.MemLatencyRaw()
		latSum += sum
		latN += n
	}
	r.InstrIssued = r.Core.InstrIssued
	r.ThreadInstr = r.Core.ThreadInstr
	r.IPC = stats.IPC(r.InstrIssued, r.Cycles)
	r.L2 = g.memsys.L2Stats()
	r.DRAM = g.memsys.DRAMStats()
	if latN > 0 {
		r.AvgMemLatency = float64(latSum) / float64(latN)
	}
	for _, ks := range g.kernels {
		k := stats.Kernel{
			Name:        ks.Spec.Name,
			LaunchCycle: ks.LaunchCycle,
			DoneCycle:   ks.DoneCycle,
			CTAs:        ks.Spec.NumCTAs(),
			Evicted:     ks.Evicted,
		}
		for _, c := range g.cores {
			k.InstrIssued += c.KernelIssued[ks.Idx]
		}
		r.Kernels = append(r.Kernels, k)
	}
	return r
}
