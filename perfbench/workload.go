package main

import (
	"fmt"
	"math/rand"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// schedPair is one CTA-scheduler / warp-scheduler combination.
type schedPair struct {
	sched sim.SchedSpec
	warp  sm.Policy
}

// sweepPairs are the schedulers every sweep request is crossed with: the
// baseline, the paper's LCS, and BCS with its block-aware warp scheduler.
var sweepPairs = []schedPair{
	{sim.Baseline(), sm.PolicyGTO},
	{sim.LCS(), sm.PolicyGTO},
	{sim.BCS(2), sm.PolicyBAWS},
}

// sweepDef is one sweep workload: a suite subset crossed with sweepPairs
// at small scale, run through sim.Service with default options.
type sweepDef struct {
	names []string
	// passSeconds is one pass's wall time on the reference host (2 CPUs,
	// default sim.Options). A run of S seconds makes round(S/passSeconds)
	// whole passes, so every run covers whole sweeps whatever the seed;
	// a run shorter than half a pass stops dispatching at its deadline.
	passSeconds float64
}

var sweeps = map[string]sweepDef{
	// SMs issue nearly every cycle: the sm issue path, the workloads
	// program iterators and the gpu/parexec barrier carry the host time.
	"issue-bound": {
		names:       []string{"sgemm", "dct8x8", "kmeans", "conv2d", "lud", "blackscholes"},
		passSeconds: 19,
	},
	// Warps wait on memory most cycles: warp-scheduler rescans of stalled
	// warps and memory-system ticks carry the host time.
	"latency-bound": {
		names:       []string{"histo", "spmv", "vadd", "nn", "hotspot"},
		passSeconds: 34,
	},
}

// workloadNames lists every workload the benchmark knows, in report order.
var workloadNames = []string{"issue-bound", "latency-bound", "service-mix"}

// requests returns the sweep's requests in canonical (workload, then
// scheduler) order.
func (d sweepDef) requests() []sim.Request {
	var reqs []sim.Request
	for _, n := range d.names {
		for _, p := range sweepPairs {
			reqs = append(reqs, sim.Request{
				Workloads: []string{n}, Sched: p.sched, Warp: p.warp, Scale: workloads.ScaleSmall,
			})
		}
	}
	return reqs
}

// passOrders returns one seeded submission order per pass.
func passOrders(n, passes int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	orders := make([][]int, passes)
	for p := range orders {
		orders[p] = rng.Perm(n)
	}
	return orders
}

// Service-mix traffic shape.
const (
	// mixClients closed-loop clients, each on its own connection.
	mixClients = 2
	// One request in freshEvery carries a key never sent before; the rest
	// repeat a key the same client already sent. One in four keeps the
	// median latency clear of the hit/miss boundary.
	freshEvery = 4
	// One fresh request in pairEvery launches two kernels.
	pairEvery = 10
	// mixCores is the simulated SM count of every service-mix request
	// (tiny kernels on a small machine, as the load generator sends).
	mixCores = 4
	// freshMaxCycles is the base of the max_cycles override that gives
	// each fresh request its own key; tiny kernels finish far below it, so
	// the override never changes an outcome.
	freshMaxCycles = 20_000_000
)

// mixSinglePairs are the schedulers single-kernel service-mix requests use.
var mixSinglePairs = []schedPair{
	{sim.Baseline(), sm.PolicyGTO},
	{sim.LCS(), sm.PolicyGTO},
	{sim.DynCTA(), sm.PolicyLRR},
	{sim.BCS(2), sm.PolicyBAWS},
}

// mixKernelPairs are the two-kernel mixes; each runs under mixed, spatial
// and preemptive scheduling, the preemptive one with a late arrival.
var mixKernelPairs = [][2]string{
	{"sgemm", "dct8x8"},
	{"stencil", "blackscholes"},
	{"vadd", "kmeans"},
	{"spmv", "conv2d"},
	{"histo", "lud"},
}

// mixArrival is the priority kernel's arrival cycle in preemptive mixes:
// early in the batch kernel's tiny-scale run, so the newcomer has to take
// slots from it.
const mixArrival = 1000

// mixBase returns the service-mix base requests (no max_cycles override):
// every suite workload under every mixSinglePairs scheduler, and the
// two-kernel mixes.
func mixBase() (singles, pairs []sim.Request) {
	for _, n := range workloads.Names() {
		for _, p := range mixSinglePairs {
			singles = append(singles, sim.Request{
				Workloads: []string{n}, Sched: p.sched, Warp: p.warp,
				Scale: workloads.ScaleTest, Cores: mixCores,
			})
		}
	}
	for _, kp := range mixKernelPairs {
		base := sim.Request{
			Workloads: []string{kp[0], kp[1]}, Warp: sm.PolicyGTO,
			Scale: workloads.ScaleTest, Cores: mixCores,
		}
		mixed, spatial, preempt := base, base, base
		mixed.Sched = sim.Mixed(0)
		spatial.Sched = sim.Spatial(0)
		preempt.Sched = sim.Preemptive(1, 0)
		preempt.Arrivals = []uint64{0, mixArrival}
		pairs = append(pairs, mixed, spatial, preempt)
	}
	return singles, pairs
}

// bag draws from a fixed set in shuffled rounds: every member is drawn once
// per round, so any window of draws has nearly the set's own composition.
type bag struct {
	items []sim.Request
	order []int
	rng   *rand.Rand
}

func (b *bag) next() sim.Request {
	if len(b.order) == 0 {
		b.order = b.rng.Perm(len(b.items))
	}
	i := b.order[0]
	b.order = b.order[1:]
	return b.items[i]
}

// mixStream is one client's request stream: deterministic from the seed
// and the client index.
type mixStream struct {
	rng     *rand.Rand
	singles bag
	pairs   bag
	client  int
	n       int // requests generated
	fresh   int // fresh requests generated
	slot    int // position of this block's fresh request
	sent    []sim.Request
}

func newMixStream(seed int64, client int, singles, pairs []sim.Request) *mixStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &mixStream{
		rng:     rng,
		singles: bag{items: singles, rng: rng},
		pairs:   bag{items: pairs, rng: rng},
		client:  client,
	}
}

// next returns the client's next request and whether its key is fresh.
// Each block of freshEvery requests holds exactly one fresh request at a
// seeded position; a client's first request is always fresh.
func (s *mixStream) next() (sim.Request, bool) {
	pos := s.n % freshEvery
	if pos == 0 {
		s.slot = s.rng.Intn(freshEvery)
		if s.n == 0 {
			s.slot = 0
		}
	}
	s.n++
	if pos != s.slot {
		return s.sent[s.rng.Intn(len(s.sent))], false
	}
	var req sim.Request
	if s.fresh%pairEvery == pairEvery-1 {
		req = s.pairs.next()
	} else {
		req = s.singles.next()
	}
	s.fresh++
	// Unique per client and per fresh request: clients never share keys.
	req.MaxCycles = freshMaxCycles + uint64(s.client)<<32 + uint64(s.fresh)
	s.sent = append(s.sent, req)
	return req, true
}

// baseKey is the expected-outcome key of a request: its canonical key with
// the max_cycles identity override removed.
func baseKey(r sim.Request) string {
	r.MaxCycles = 0
	return r.Key()
}

// buildSpecs builds the kernel specs of every request, as the service does
// when it simulates them.
func buildSpecs(reqs []sim.Request) error {
	for _, r := range reqs {
		for _, name := range r.Workloads {
			w, ok := workloads.ByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			if w.Build(r.Scale) == nil {
				return fmt.Errorf("workload %q built no kernel", name)
			}
		}
	}
	return nil
}
