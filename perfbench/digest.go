package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"gpusched/internal/sim"
	"gpusched/internal/stats"
)

// digest is the part of an outcome the benchmark checks: enough counters
// that any change to the simulated model shows, compact enough to commit.
type digest struct {
	Cycles      uint64      `json:"cycles"`
	Instr       uint64      `json:"instr"`
	ThreadInstr uint64      `json:"thread_instr"`
	L1          stats.Cache `json:"l1"`
	L2          stats.Cache `json:"l2"`
	DRAM        stats.DRAM  `json:"dram"`
	Limits      []int       `json:"limits,omitempty"`
	KernelDone  []uint64    `json:"kernel_done"`
}

func digestOf(out sim.Outcome) digest {
	r := out.Result
	d := digest{
		Cycles: r.Cycles, Instr: r.InstrIssued, ThreadInstr: r.ThreadInstr,
		L1: r.L1, L2: r.L2, DRAM: r.DRAM,
	}
	if len(out.Limits) > 0 {
		d.Limits = append([]int(nil), out.Limits...)
	}
	for _, k := range r.Kernels {
		d.KernelDone = append(d.KernelDone, k.DoneCycle)
	}
	return d
}

// expectedFile is the committed expected-outputs file.
type expectedFile struct {
	// Note says how the file was made and how to remake it.
	Note string `json:"note"`
	// Entries maps each request's base key (see baseKey) to its digest.
	Entries map[string]digest `json:"entries"`
}

func loadExpected(path string) (map[string]digest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading expected outputs: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("%s holds no entries", path)
	}
	return f.Entries, nil
}

// check compares an outcome with its expected digest.
func check(exp map[string]digest, req sim.Request, out sim.Outcome) error {
	key := baseKey(req)
	want, ok := exp[key]
	if !ok {
		return fmt.Errorf("no expected outcome for %s", key)
	}
	if got := digestOf(out); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("outcome of %s differs from the expected digest: got %+v, want %+v", key, got, want)
	}
	return nil
}

// allBaseRequests lists every request any workload can send, without
// max_cycles overrides.
func allBaseRequests() []sim.Request {
	var reqs []sim.Request
	for _, name := range workloadNames {
		if d, ok := sweeps[name]; ok {
			reqs = append(reqs, d.requests()...)
		}
	}
	singles, pairs := mixBase()
	return append(append(reqs, singles...), pairs...)
}

// regenerate simulates every base request with serial ticking (the
// reference execution path) and writes their digests to path.
func regenerate(ctx context.Context, path string, log io.Writer) error {
	reqs := allBaseRequests()
	svc := sim.NewService(sim.Options{TickWorkers: 1, Progress: log})
	if err := svc.RunAll(ctx, reqs); err != nil {
		return err
	}
	entries := make(map[string]digest, len(reqs))
	for _, r := range reqs {
		out, err := svc.Run(ctx, r) // memo hit
		if err != nil {
			return err
		}
		entries[baseKey(r)] = digestOf(out)
	}
	f := expectedFile{
		Note:    "Outcome digests of every benchmark request, simulated with tick workers at 1. Remake with: bash perfbench/run.sh --regenerate",
		Entries: entries,
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
