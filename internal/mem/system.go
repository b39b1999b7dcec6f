package mem

import "gpusched/internal/stats"

// System is the shared memory hierarchy below the cores: a request crossbar
// to the L2/DRAM partitions and a response crossbar back. Cores inject
// through per-core Port values (which implement Sender for their L1) and
// drain responses with PopResponse each cycle.
//
// Injection is *staged*: within a cycle, a port's Send appends to its core's
// private per-partition bucket and CanSend admits against the crossbar
// occupancy snapshotted at the end of the previous tick (plus the core's own
// staged requests). The partition tick then commits the staged requests into
// the request crossbar in core-index order before the partition runs. Two
// properties follow, and both are load-bearing:
//
//   - Core isolation: while the cores tick, a core touches only its own
//     staging buckets and its own response lanes, so the GPU may tick cores
//     concurrently (phase A of the two-phase tick, DESIGN.md) without any
//     core observing another's same-cycle traffic.
//   - Determinism: a core's admission verdict depends only on the snapshot
//     and its own staged requests — never on how the other cores' same-cycle
//     sends are interleaved — so the committed state is identical whatever
//     order (or parallelism) the cores ticked in.
//
// The snapshot admits optimistically against the *committed* queue: every
// core sees the same free space f in a partition and may stage up to f
// requests there, so a commit can transiently exceed the configured capacity
// by up to (numCores-1)*f entries — as much as (numCores-1)*capacity when
// the queue started the cycle empty. The pipe absorbs the overshoot and
// CanSend reports the partition full until it drains back under the bound —
// backpressure is preserved (the overfill is bounded and cleared before new
// admissions), just assessed once per cycle instead of once per send, which
// admits one cycle's burst more than a per-send check would.
//
// The partitions themselves tick as phase A2 of the cycle: TickShard runs a
// contiguous range of partitions, and distinct shards may run on distinct
// workers because a partition's whole working set is partition-owned —
// its request pipe, its L2/MSHR/DRAM state, its response lanes (one
// virtual-channel pipe per (partition, core) pair, written by exactly one
// partition and popped by exactly one core), and its staging cell (the
// in-flight delta and the response-hook buffer). TickMerge then folds the
// per-partition staging cells serially in partition-index order — the
// staging semantics are THE semantics at every shard count, so results are
// byte-identical across shard counts by construction (the golden
// determinism tests diff worker counts, which set the shard count). Tick is
// the serial wrapper: every shard in index order, then the merge.
//
// Tick order within a cycle is therefore fixed and deterministic: each
// partition commits its cores' staged requests in core-index order
// immediately before it runs, partitions are merged in index order, and a
// core pops its response lanes by (ready cycle, partition index) — exactly
// the order a single shared FIFO fed in partition order would have produced.
//
// System is shared state for the two-phase tick: phase-A code may touch it
// only through the declared staging sinks (a port's Send, PopResponse) and
// read-only probes, and phase-A2 code only through tickPartition's
// partition-owned carve-out — gpulint phasepurity enforces both.
//
//gpulint:shared
type System struct {
	cfg        *Config
	partitions []*L2Partition
	// toPart[i] carries requests to partition i (request crossbar).
	toPart []*pipe[Request]
	// vc[i*numCores+c] carries responses from partition i back to core c —
	// the response crossbar as per-(partition,core) virtual channels. Each
	// lane has a single writer (partition i, during its tick) and a single
	// reader (core c, during its tick), which is what lets partitions and
	// cores run concurrently without observing each other's same-cycle
	// traffic. PopResponse merges the lanes by (ready, partition index).
	vc       []*pipe[Response]
	numCores int
	// slots[c] is core c's staging area. During a cycle each core mutates
	// only its own slot; partition i drains every slot's bucket i.
	slots []coreSlot
	// parts[i] is partition i's staging cell: the state a partition must
	// export to the serial merge instead of writing shared fields directly.
	parts []partCell
	// respCount[i] is the number of responses buffered in partition i's
	// lanes as of the last merge: deliveries accrue in the partition's cell
	// (respDelta), pops in the popping core's slot (popsByPart), and the
	// merge folds both. Phase-A readers (PopResponse, ResponseNextReady) may
	// use a zero to skip the partition's lanes outright: nothing delivers
	// between the merge and phase A, so a zero is exact there, and pops only
	// empty lanes further.
	respCount []int
	// snapLen[i] is toPart[i].Len() at the end of the previous merge — the
	// occupancy CanSend admits against.
	snapLen []int
	// xbarCap mirrors the request pipes' capacity clamp (see newPipe).
	xbarCap int
	// shards is how many TickShard ranges the partitions are split into
	// (SetShards; 1 until told otherwise, never more than the partition
	// count). Execution-only: results are byte-identical for every value.
	shards int
	// inflight counts requests anywhere in the hierarchy: +1 where a staged
	// request commits and on write-back spawn, -1 where a request leaves (a
	// response popped, a store absorbed by an L2 hit, a write burst scheduled
	// at DRAM). Commits and absorptions are recorded in the owning
	// partition's delta and pops in the owning core's slot during the cycle;
	// TickMerge folds both, so Drained stays cheap and neither cores nor
	// partitions ever write this shared field.
	inflight int
	// onResponse, when set, observes every response committed into a core's
	// return lane, with the cycle it becomes poppable. The GPU's activity set
	// uses it to lower a parked core's wake bound — a response headed for a
	// sleeping SM must wake it no later than the cycle it can be popped. The
	// events are staged in the delivering partition's cell and fired by
	// TickMerge in partition order — serial phase B, never from a worker.
	onResponse func(core int, ready uint64)
}

// coreSlot is one core's cycle-private staging area. The trailing pad keeps
// neighbouring cores' slots off each other's cache lines when the cores tick
// in parallel.
type coreSlot struct {
	// staged[i] holds the requests sent to partition i this cycle, in send
	// order. Bucketing by destination is what lets partition i commit its
	// ingress without scanning other partitions' traffic — bucket (c,i) has
	// one writer (core c, phase A) and one consumer (partition i, phase A2).
	staged [][]Request
	// stagedTotal counts the core's staged requests across every bucket.
	// Written only by the owning core (phase A) and reset at the merge, so
	// the partition ticks may read it concurrently to skip cores that staged
	// nothing — the common case — without touching each bucket.
	stagedTotal int
	// pops counts responses popped this cycle, folded into inflight at the
	// merge; popsByPart[i] attributes them to partition i's respCount.
	pops       int
	popsByPart []int
	_          [64]byte
}

// partCell is one partition's staging cell for the sharded tick: everything
// a partition tick produces that the serial world consumes. The trailing pad
// keeps neighbouring partitions' cells off each other's cache lines.
type partCell struct {
	// now is the cycle the partition is currently ticking — written by
	// tickPartition before the partition runs so the deliver closure (built
	// once, no per-cycle allocation) can stamp response ready times.
	now uint64
	// delta accrues this partition's in-flight adjustments since the last
	// merge: ingress commits and write-back spawns increment, store
	// absorptions and scheduled write bursts decrement (the partition and
	// its DRAM channel hold a pointer to this field, not to System.inflight).
	delta int
	// respDelta counts this partition's lane deliveries since the last
	// merge, folded into System.respCount.
	respDelta int
	// hooks stages the response-delivery events for onResponse, in delivery
	// order.
	hooks []respHook
	// deliver is the partition's egress: push into the (partition, core)
	// lane and stage the wake event. Built once at NewSystem.
	deliver func(core int, resp Response) bool
	_       [64]byte
}

// respHook is one staged response-delivery event: core's lane has a response
// poppable at ready.
type respHook struct {
	core  int
	ready uint64
}

// NeverEvent is the NextEvent bound meaning "no time-driven work pending".
const NeverEvent = ^uint64(0)

// NewSystem builds the memory system for numCores cores.
func NewSystem(cfg *Config, numCores int) *System {
	s := &System{cfg: cfg, numCores: numCores, shards: 1}
	s.partitions = make([]*L2Partition, cfg.Partitions)
	s.toPart = make([]*pipe[Request], cfg.Partitions)
	s.parts = make([]partCell, cfg.Partitions)
	s.vc = make([]*pipe[Response], cfg.Partitions*numCores)
	for i := range s.vc {
		// Return lanes are sized generously relative to request queues:
		// responses must always drain or the hierarchy deadlocks.
		s.vc[i] = newPipe[Response](cfg.XbarQueueCap*cfg.Partitions, cfg.XbarLatency)
	}
	for i := range s.partitions {
		s.partitions[i] = NewL2Partition(cfg, i)
		s.partitions[i].bindInflight(&s.parts[i].delta)
		s.toPart[i] = newPipe[Request](cfg.XbarQueueCap, cfg.XbarLatency)
		cell := &s.parts[i]
		base := i * numCores
		// The deliver closure runs on phase-A2 workers: it writes only this
		// partition's own lanes and staging cell, reading the tick cycle from
		// the cell rather than capturing it per cycle.
		//
		//gpulint:staged writes only the owning partition's response lanes and staging cell
		cell.deliver = func(core int, resp Response) bool {
			if !s.vc[base+core].Push(cell.now, resp) {
				return false
			}
			cell.respDelta++
			if s.onResponse != nil {
				cell.hooks = append(cell.hooks, respHook{core: core, ready: cell.now + s.cfg.XbarLatency})
			}
			return true
		}
	}
	s.slots = make([]coreSlot, numCores)
	for c := range s.slots {
		s.slots[c].staged = make([][]Request, cfg.Partitions)
		s.slots[c].popsByPart = make([]int, cfg.Partitions)
	}
	s.respCount = make([]int, cfg.Partitions)
	s.snapLen = make([]int, cfg.Partitions)
	s.xbarCap = s.toPart[0].cap
	return s
}

// Config returns the memory configuration.
func (s *System) Config() *Config { return s.cfg }

// Port returns core coreID's injection port.
func (s *System) Port(coreID int) Sender { return &port{sys: s, core: coreID} }

type port struct {
	sys  *System
	core int
}

// CanSend admits against the start-of-cycle snapshot plus this core's own
// staged requests — deliberately blind to other cores' same-cycle sends, so
// the verdict is identical however the cores' ticks interleave.
func (p *port) CanSend(lineAddr uint64) bool {
	s := p.sys
	tgt := s.cfg.PartitionOf(lineAddr)
	return s.snapLen[tgt]+len(s.slots[p.core].staged[tgt]) < s.xbarCap
}

// Send stages the request in the core's private bucket for the target
// partition; that partition's next tick commits it.
//
//gpulint:staged writes only the sending core's own staging buckets
func (p *port) Send(req Request, now uint64) {
	s := p.sys
	tgt := s.cfg.PartitionOf(req.LineAddr)
	sl := &s.slots[p.core]
	if s.snapLen[tgt]+len(sl.staged[tgt]) >= s.xbarCap {
		panic("mem: Send without CanSend")
	}
	sl.staged[tgt] = append(sl.staged[tgt], req)
	sl.stagedTotal++
}

// SetResponseHook registers the response-delivery observer (see the
// onResponse field). Must be set before the first Tick.
func (s *System) SetResponseHook(fn func(core int, ready uint64)) { s.onResponse = fn }

// SetShards splits the partitions into n contiguous TickShard ranges,
// clamped to [1, partition count] so no shard is empty. Execution-only —
// results are byte-identical for every value.
func (s *System) SetShards(n int) {
	s.shards = max(1, min(n, len(s.partitions)))
}

// partRange returns shard's contiguous partition range [lo, hi) — the same
// split rule parexec uses for cores, so the mapping is a pure function of
// (shard, shards, partitions).
func (s *System) partRange(shard int) (lo, hi int) {
	n := len(s.partitions)
	return shard * n / s.shards, (shard + 1) * n / s.shards
}

// ResponseNextReady returns the cycle core's next buffered response becomes
// poppable, NeverEvent when none is buffered. Each lane is FIFO with uniform
// latency, so no later response can become poppable earlier; later
// deliveries are covered by the response hook. Phase-A shard visits call it
// while probing for parkability, so it must stay a pure read.
//
//gpulint:phasea
func (s *System) ResponseNextReady(core int) uint64 {
	next := uint64(NeverEvent)
	for p := 0; p < len(s.partitions); p++ {
		if s.respCount[p] == 0 {
			continue
		}
		if ev := s.vc[p*s.numCores+core].NextReady(); ev < next {
			next = ev
		}
	}
	return next
}

// PopResponse returns the next ready response for coreID, if any: the ready
// lane head with the earliest ready cycle, ties to the lowest partition
// index — the exact order a single shared FIFO fed in partition order would
// pop, so the lane split is invisible to the cores. The in-flight accounting
// is deferred to the core's slot so concurrent cores never write shared
// state.
//
//gpulint:staged pops the core's own response lanes and counts in its own slot
func (s *System) PopResponse(coreID int, now uint64) (Response, bool) {
	best := -1
	var bestReady uint64
	for p := 0; p < len(s.partitions); p++ {
		if s.respCount[p] == 0 {
			continue
		}
		q := s.vc[p*s.numCores+coreID]
		if r := q.NextReady(); r <= now && (best < 0 || r < bestReady) {
			best, bestReady = p, r
		}
	}
	if best < 0 {
		return Response{}, false
	}
	s.slots[coreID].pops++
	s.slots[coreID].popsByPart[best]++
	return s.vc[best*s.numCores+coreID].Pop(), true
}

// Tick advances the whole hierarchy one cycle serially: every shard in index
// order, then the merge. It is the reference path (and the standalone-user
// entry point); the GPU's cycle loop calls TickShard from its phase-A2
// workers and TickMerge from phase B, which executes the exact same
// statements in the exact same per-partition order.
//
//gpulint:phaseb commits every core's staged traffic; racing phase A would tear the slots
func (s *System) Tick(now uint64) {
	for sh := 0; sh < s.shards; sh++ {
		s.TickShard(sh, now)
	}
	s.TickMerge()
}

// TickShard advances shard's partitions one cycle: each partition commits
// its cores' staged ingress (core-index order) and then runs, writing egress
// into its own lanes and staging cell. Distinct shards touch disjoint
// partition-owned state, so the GPU runs them concurrently as phase A2;
// TickMerge folds the cells afterwards. Everything reachable from here must
// confine itself to partition-owned state (gpulint phasepurity polices the
// carve-out through tickPartition).
//
//gpulint:hotpath
//gpulint:phasea
func (s *System) TickShard(shard int, now uint64) {
	lo, hi := s.partRange(shard)
	for i := lo; i < hi; i++ {
		s.tickPartition(i, now)
	}
}

// tickPartition is the phase-A2 staging sink: partition i's ingress commit
// and tick. It writes only partition-owned state — partition i's request
// pipe, cache/MSHR/DRAM internals, response lanes, and staging cell — plus
// the cores' partition-i staging buckets, each of which has exactly this one
// phase-A2 consumer. The ingress commit drains every core's bucket i into
// the request crossbar in core-index order with the same ready cycle a
// direct send would have had; running it immediately before partition i's
// tick is indistinguishable from committing all partitions up front, because
// no partition reads another partition's pipe.
//
//gpulint:staged writes only partition i's pipes, staging cell, and the cores' partition-i buckets
func (s *System) tickPartition(i int, now uint64) {
	cell := &s.parts[i]
	q := s.toPart[i]
	n := 0
	for c := range s.slots {
		if s.slots[c].stagedTotal == 0 {
			continue
		}
		b := s.slots[c].staged[i]
		if len(b) == 0 {
			continue
		}
		for j := range b {
			q.forcePush(now, b[j])
		}
		n += len(b)
		s.slots[c].staged[i] = b[:0]
	}
	cell.delta += n
	cell.now = now
	s.partitions[i].Tick(now, s.toPart[i], cell.deliver)
}

// TickMerge folds the cycle's per-partition staging cells serially, in
// partition-index order: in-flight deltas, then the staged response-hook
// events, then the cores' pop counts, and finally the admission snapshot.
// It must run after every shard of the cycle and before any serial-phase
// consumer reads the system.
//
//gpulint:phaseb folds every partition's staging cell and every core's slot; racing phase A would tear them
func (s *System) TickMerge() {
	for i := range s.parts {
		s.inflight += s.parts[i].delta
		s.parts[i].delta = 0
		s.respCount[i] += s.parts[i].respDelta
		s.parts[i].respDelta = 0
	}
	s.fireHooks()
	for c := range s.slots {
		sl := &s.slots[c]
		if sl.pops > 0 {
			for i := range sl.popsByPart {
				s.respCount[i] -= sl.popsByPart[i]
				sl.popsByPart[i] = 0
			}
		}
		s.inflight -= sl.pops
		sl.pops = 0
		// Every partition ticked since the cores last staged, so every
		// bucket has drained; the totals restart from zero.
		sl.stagedTotal = 0
	}
	for i, q := range s.toPart {
		s.snapLen[i] = q.Len()
	}
}

// fireHooks replays the staged response-delivery events through onResponse
// in partition-index order and, within a partition, delivery order — the
// serial tick's firing order. Every event of one cycle has the same ready
// cycle, so no merge by ready is needed.
func (s *System) fireHooks() {
	if s.onResponse == nil {
		return
	}
	for i := range s.parts {
		cell := &s.parts[i]
		for _, h := range cell.hooks {
			s.onResponse(h.core, h.ready)
		}
		cell.hooks = cell.hooks[:0]
	}
}

// LiveParts counts partitions with any buffered or in-flight work — the
// GPU's cheap estimate of whether a parallel phase A2 is worth its barrier
// (serial phases only).
func (s *System) LiveParts() int {
	n := 0
	for i, p := range s.partitions {
		if !p.Drained() || s.toPart[i].Len() > 0 {
			n++
		}
	}
	return n
}

// Drained reports whether no requests or responses remain anywhere in the
// hierarchy — staged-but-uncommitted sends count as in flight, responses
// popped but not yet folded do not. Used by tests and quiescence checks.
// O(numCores·partitions): the in-flight counter tracks every committed
// request, corrected by the cycle's not-yet-folded slot and cell activity
// (drainedScan is the checkable definition it must agree with).
func (s *System) Drained(now uint64) bool {
	n := s.inflight
	for i := range s.parts {
		n += s.parts[i].delta
	}
	for c := range s.slots {
		sl := &s.slots[c]
		for p := range sl.staged {
			n += len(sl.staged[p])
		}
		n -= sl.pops
	}
	return n == 0
}

// drainedScan is the structural definition of quiescence: no request or
// response buffered (or staged) anywhere. Tests assert it stays equivalent
// to the counter-based Drained.
func (s *System) drainedScan() bool {
	for _, p := range s.partitions {
		if !p.Drained() {
			return false
		}
	}
	for _, q := range s.toPart {
		if q.Len() > 0 {
			return false
		}
	}
	for _, q := range s.vc {
		if q.Len() > 0 {
			return false
		}
	}
	for c := range s.slots {
		for p := range s.slots[c].staged {
			if len(s.slots[c].staged[p]) > 0 {
				return false
			}
		}
	}
	return true
}

// NextEvent returns the earliest cycle >= now at which the hierarchy can
// make progress on its own: a staged request committing at the next tick, a
// partition acting (its request pipe included) or a response reaching a
// core's pop point. NeverEvent means the hierarchy is quiescent until a core
// sends a new request. (Unfolded pop counts are bookkeeping, not progress,
// and do not bound the event.)
func (s *System) NextEvent(now uint64) uint64 {
	for c := range s.slots {
		if s.slots[c].stagedTotal > 0 {
			return now
		}
	}
	next := uint64(NeverEvent)
	for i, p := range s.partitions {
		if ev := p.NextEvent(now, s.toPart[i]); ev < next {
			next = ev
		}
		if next <= now {
			return now
		}
	}
	for i := range s.partitions {
		if s.respCount[i] == 0 {
			continue
		}
		base := i * s.numCores
		for c := 0; c < s.numCores; c++ {
			if ev := s.vc[base+c].NextReady(); ev < next {
				next = ev
			}
			if next <= now {
				return now
			}
		}
	}
	return next
}

// L2Stats sums the per-partition L2 counters.
func (s *System) L2Stats() stats.Cache {
	var sum stats.Cache
	for _, p := range s.partitions {
		sum.Add(&p.Stats)
	}
	return sum
}

// DRAMStats sums the per-channel DRAM counters.
func (s *System) DRAMStats() stats.DRAM {
	var sum stats.DRAM
	for _, p := range s.partitions {
		sum.Add(p.DRAMStats())
	}
	return sum
}

// Partition exposes partition i for white-box tests.
func (s *System) Partition(i int) *L2Partition { return s.partitions[i] }
