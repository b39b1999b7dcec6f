package gpu

import (
	"reflect"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// testConfig shrinks the GPU so ScaleTest workloads finish in milliseconds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCores = 4
	cfg.MaxCycles = 3_000_000
	return cfg
}

func mustRun(t *testing.T, cfg Config, d core.Dispatcher, specs ...*kernel.Spec) Result {
	t.Helper()
	g, err := New(cfg, d, specs...)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Run()
	if r.TimedOut {
		t.Fatalf("simulation timed out at %d cycles", r.Cycles)
	}
	return r
}

func TestEveryWorkloadCompletes(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			spec := w.Build(workloads.ScaleTest)
			r := mustRun(t, testConfig(), core.NewRoundRobin(), spec)
			if int(r.Core.CTAsCompleted) != spec.NumCTAs() {
				t.Fatalf("completed %d CTAs, want %d", r.Core.CTAsCompleted, spec.NumCTAs())
			}
			if r.IPC <= 0 {
				t.Fatal("zero IPC")
			}
			if r.Kernels[0].DoneCycle == 0 {
				t.Fatal("kernel completion not stamped")
			}
		})
	}
}

func TestInstructionCountInvariantAcrossDispatchers(t *testing.T) {
	// CTA scheduling changes *when/where* CTAs run, never *what* they
	// execute: total issued instructions must match exactly.
	spec := func() *kernel.Spec {
		w, _ := workloads.ByName("stencil")
		return w.Build(workloads.ScaleTest)
	}
	base := mustRun(t, testConfig(), core.NewRoundRobin(), spec())
	for _, d := range []core.Dispatcher{core.NewLCS(), core.NewBCS(), core.NewSequential()} {
		r := mustRun(t, testConfig(), d, spec())
		if r.InstrIssued != base.InstrIssued {
			t.Errorf("%s issued %d instructions, baseline %d",
				d.Name(), r.InstrIssued, base.InstrIssued)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	w, _ := workloads.ByName("spmv")
	r1 := mustRun(t, testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	r2 := mustRun(t, testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if r1.Cycles != r2.Cycles || r1.InstrIssued != r2.InstrIssued ||
		r1.L1 != r2.L1 || r1.DRAM != r2.DRAM {
		t.Fatalf("replay diverged: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestWarpPolicyAffectsButPreservesWork(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	run := func(p sm.Policy) Result {
		cfg := testConfig()
		cfg.Core.WarpPolicy = p
		return mustRun(t, cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	}
	lrr := run(sm.PolicyLRR)
	gto := run(sm.PolicyGTO)
	if lrr.InstrIssued != gto.InstrIssued {
		t.Fatalf("warp policy changed instruction count: %d vs %d",
			lrr.InstrIssued, gto.InstrIssued)
	}
}

func TestSequentialSerializesKernels(t *testing.T) {
	a, _ := workloads.ByName("vadd")
	b, _ := workloads.ByName("kmeans")
	r := mustRun(t, testConfig(), core.NewSequential(),
		a.Build(workloads.ScaleTest), b.Build(workloads.ScaleTest))
	k0, k1 := r.Kernels[0], r.Kernels[1]
	if k1.LaunchCycle < k0.DoneCycle {
		t.Fatalf("kernel 1 launched at %d before kernel 0 finished at %d",
			k1.LaunchCycle, k0.DoneCycle)
	}
}

func TestSpatialRunsKernelsConcurrently(t *testing.T) {
	a, _ := workloads.ByName("vadd")
	b, _ := workloads.ByName("kmeans")
	r := mustRun(t, testConfig(), core.NewSpatial(),
		a.Build(workloads.ScaleTest), b.Build(workloads.ScaleTest))
	k0, k1 := r.Kernels[0], r.Kernels[1]
	if k1.LaunchCycle >= k0.DoneCycle {
		t.Fatalf("spatial CKE did not overlap kernels: k1 launch %d, k0 done %d",
			k1.LaunchCycle, k0.DoneCycle)
	}
}

func TestMixedCoResidency(t *testing.T) {
	a, _ := workloads.ByName("spmv")
	b, _ := workloads.ByName("blackscholes")
	cfg := testConfig()
	d := core.NewMixed(2)
	g, err := New(cfg, d, a.Build(workloads.ScaleTest), b.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	// Probe co-residency on every CTA completion.
	coResident := false
	overLimit := false
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		c := g.Core(coreID)
		if c.ResidentOf(0) > 0 && c.ResidentOf(1) > 0 {
			coResident = true
		}
		if c.ResidentOf(0) > 2 {
			overLimit = true
		}
	})
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	if !coResident {
		t.Fatal("mixed CKE never co-located both kernels on one SM")
	}
	if overLimit {
		t.Fatal("mixed CKE exceeded kernel-0 limit")
	}
}

func TestLCSDecidesLimits(t *testing.T) {
	w, _ := workloads.ByName("spmv")
	cfg := testConfig()
	d := core.NewLCS()
	spec := w.Build(workloads.ScaleTest)
	g, err := New(cfg, d, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	maxRes, _ := cfg.Core.Limits.MaxResident(spec)
	decidedAny := false
	for coreID, lim := range d.Limits() {
		if lim == 0 {
			continue
		}
		decidedAny = true
		if lim < 1 || lim > maxRes {
			t.Errorf("core %d limit %d outside [1,%d]", coreID, lim, maxRes)
		}
	}
	if !decidedAny {
		t.Fatal("LCS never decided a limit")
	}
	if d.DecidedLimit(maxRes) < 1 {
		t.Fatal("DecidedLimit degenerate")
	}
}

func TestBCSPairsConsecutiveCTAs(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	cfg := testConfig()
	d := core.NewBCS()
	g, err := New(cfg, d, w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	// Record which core each CTA ran on.
	coreOf := map[int]int{}
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		coreOf[cta.ID] = coreID
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	paired := 0
	total := 0
	for id, c := range coreOf {
		if id%2 == 0 {
			total++
			if c2, ok := coreOf[id+1]; ok && c2 == c {
				paired++
			}
		}
	}
	if total == 0 {
		t.Fatal("no CTAs observed")
	}
	if frac := float64(paired) / float64(total); frac < 0.9 {
		t.Fatalf("only %.0f%% of consecutive pairs co-located under BCS", frac*100)
	}
}

func TestRoundRobinSpreadsCTAs(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	cfg := testConfig()
	g, err := New(cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.NumCores)
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		counts[coreID]++
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("core %d received no CTAs", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	spec := w.Build(workloads.ScaleTest)
	if _, err := New(Config{NumCores: 0}, core.NewRoundRobin(), spec); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(testConfig(), core.NewRoundRobin()); err == nil {
		t.Error("no kernels accepted")
	}
	big := *spec
	big.SharedMemPerCTA = 1 << 20
	if _, err := New(testConfig(), core.NewRoundRobin(), &big); err == nil {
		t.Error("unfittable kernel accepted")
	}
	bad := *spec
	bad.Block = kernel.Dim3{X: 33}
	if _, err := New(testConfig(), core.NewRoundRobin(), &bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestStatsConsistency(t *testing.T) {
	w, _ := workloads.ByName("hotspot")
	spec := w.Build(workloads.ScaleTest)
	r := mustRun(t, testConfig(), core.NewRoundRobin(), spec)
	if r.L1.Accesses != r.L1.Hits+r.L1.Misses {
		t.Errorf("L1 accesses %d != hits %d + misses %d", r.L1.Accesses, r.L1.Hits, r.L1.Misses)
	}
	if r.L2.Accesses != r.L2.Hits+r.L2.Misses {
		t.Errorf("L2 accesses %d != hits %d + misses %d", r.L2.Accesses, r.L2.Hits, r.L2.Misses)
	}
	if r.Kernels[0].InstrIssued != r.InstrIssued {
		t.Errorf("kernel issue bucket %d != total %d", r.Kernels[0].InstrIssued, r.InstrIssued)
	}
	if r.ThreadInstr < r.InstrIssued {
		t.Errorf("thread instrs %d < warp instrs %d", r.ThreadInstr, r.InstrIssued)
	}
	// Memory-touching kernel must show DRAM traffic.
	if r.DRAM.Reads == 0 {
		t.Error("no DRAM reads for a memory workload")
	}
	if r.AvgMemLatency <= 0 {
		t.Error("no memory latency recorded")
	}
}

func TestTimeoutReported(t *testing.T) {
	w, _ := workloads.ByName("sgemm")
	cfg := testConfig()
	cfg.MaxCycles = 100 // absurdly short
	g, err := New(cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if r := g.Run(); !r.TimedOut {
		t.Fatal("100-cycle budget did not time out")
	}
}

// TestWorkerCountInvariance is the package-level statement of the parallel
// tick's contract: the committed Result is a pure function of the request,
// whatever Config.Workers says (the harness golden tests restate this over
// every experiment and full Result rendering). The worker count sets both
// the phase-A SM shards and the phase-A2 memory shards, so each count here
// cuts the cores and the partitions differently. Counts above GOMAXPROCS are
// included deliberately — oversubscription changes the interleaving as
// violently as extra cores do. DynCTA is included because its epoch
// adjustment reads per-core stall counters, so a missing sleeper sync would
// diverge here before anywhere else.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"stencil", "spmv"} {
		w, _ := workloads.ByName(name)
		for _, d := range []func() core.Dispatcher{
			func() core.Dispatcher { return core.NewRoundRobin() },
			func() core.Dispatcher { return core.NewLCS() },
			func() core.Dispatcher { return core.NewDynCTA() },
		} {
			cfg := testConfig()
			cfg.Workers = 1
			base := mustRun(t, cfg, d(), w.Build(workloads.ScaleTest))
			sched := d().Name()
			for _, workers := range []int{2, 3, 7} {
				cfg := testConfig()
				cfg.Workers = workers
				r := mustRun(t, cfg, d(), w.Build(workloads.ScaleTest))
				if !reflect.DeepEqual(r, base) {
					t.Errorf("%s/%s: Workers=%d diverged from Workers=1:\n%+v\nvs\n%+v",
						name, sched, workers, r, base)
				}
			}
		}
	}
}

// TestWorkerCountInvarianceNoFastForward pins the same contract on the
// reference loop, so a fast-forward interaction cannot mask a phase-A or
// phase-A2 ordering bug (or vice versa). Without a fast-forward proof chain
// no SM is ever parked, so what remains under test is the per-cycle SM
// shard split and the memory system's ingress/egress staging and shard
// merge, which must be inert however the cores and partitions are cut.
func TestWorkerCountInvarianceNoFastForward(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	for _, d := range []func() core.Dispatcher{
		func() core.Dispatcher { return core.NewBCS() },
		func() core.Dispatcher { return core.NewRoundRobin() },
	} {
		cfg := testConfig()
		cfg.Workers = 1
		cfg.DisableFastForward = true
		base := mustRun(t, cfg, d(), w.Build(workloads.ScaleTest))
		for _, workers := range []int{2, 3, 4} {
			cfg.Workers = workers
			if r := mustRun(t, cfg, d(), w.Build(workloads.ScaleTest)); !reflect.DeepEqual(r, base) {
				t.Errorf("%s: Workers=%d (no FF) diverged from Workers=1:\n%+v\nvs\n%+v",
					d().Name(), workers, r, base)
			}
		}
	}
}
