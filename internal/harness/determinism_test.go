package harness

import (
	"bytes"
	"runtime"
	"testing"

	"gpusched/internal/workloads"
)

// renderExperiment runs one experiment on a fresh harness and returns its
// rendered table.
func renderExperiment(t *testing.T, e Experiment, opt Options) []byte {
	t.Helper()
	tab, err := e.Run(New(opt))
	if err != nil {
		t.Fatalf("%s (noff=%t): %v", e.ID, opt.NoFastForward, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	return buf.Bytes()
}

// TestGoldenFastForwardDeterminism is the gate on the event-horizon
// fast-forward: every experiment, run with the fast-forward active and with
// it force-disabled, must render byte-identical tables. The skip logic is
// only allowed to elide cycles it can prove change nothing — any divergence
// in Cycles, InstrIssued, stall attribution, or per-kernel stats shows up
// here as a table diff.
func TestGoldenFastForwardDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			fast := renderExperiment(t, e, Options{Scale: workloads.ScaleTest})
			ref := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, NoFastForward: true})
			if !bytes.Equal(fast, ref) {
				t.Errorf("fast-forward changed %s:\n--- fast-forward ---\n%s--- reference ---\n%s",
					e.ID, fast, ref)
			}
		})
	}
}

// TestGoldenTickWorkerDeterminism is the gate on the two-phase parallel
// tick and the activity set riding on it: every experiment, run with the
// serial reference path (TickWorkers=1) and with parallel worker counts
// crossed against the fast-forward toggle, must render byte-identical
// tables. The worker count sets both the SM shards and the memory-partition
// shards: 2 splits the 6 partitions in halves, 7 crosses the SM count
// unevenly (7 shards over 15 cores) and gives every partition its own
// shard, and GOMAXPROCS covers whatever the host has unless it repeats a
// count already rendered. The NoFastForward combo pins the reference loop,
// where no SM ever parks.
func TestGoldenTickWorkerDeterminism(t *testing.T) {
	combos := []Options{
		{TickWorkers: 2},
		{TickWorkers: 7},
		{TickWorkers: 7, NoFastForward: true},
	}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 7 {
		combos = append(combos, Options{TickWorkers: p})
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			serial := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, TickWorkers: 1})
			for _, c := range combos {
				c.Scale = workloads.ScaleTest
				par := renderExperiment(t, e, c)
				if !bytes.Equal(serial, par) {
					t.Errorf("tick workers=%d noff=%t changed %s:\n--- workers=1 ---\n%s--- variant ---\n%s",
						c.TickWorkers, c.NoFastForward, e.ID, serial, par)
				}
			}
		})
	}
}

// TestGoldenDeterminismAcrossGOMAXPROCS pins down that worker parallelism
// never leaks into results: one experiment run on a single-threaded
// scheduler must match the default parallel run bit for bit.
func TestGoldenDeterminismAcrossGOMAXPROCS(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	wide := renderExperiment(t, e, Options{Scale: workloads.ScaleTest})
	prev := runtime.GOMAXPROCS(1)
	narrow := renderExperiment(t, e, Options{Scale: workloads.ScaleTest})
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(wide, narrow) {
		t.Errorf("GOMAXPROCS changed fig5:\n--- parallel ---\n%s--- serial ---\n%s", wide, narrow)
	}
}
