package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"gpusched/internal/sim"
)

// runSweep measures a sweep workload: whole passes of its request list,
// each through a fresh sim.Service with default options (the harness and
// paperbench path), issued from NumCPU goroutines — the bound RunAll's
// semaphore imposes — in a seeded order per pass.
func runSweep(ctx context.Context, d sweepDef, o options, exp map[string]digest) (*measurement, error) {
	m := &measurement{}
	passes := int(math.Floor(o.seconds/d.passSeconds + 0.5))
	var deadline time.Duration // 0: whole passes
	if passes == 0 {
		passes, deadline = 1, durationSeconds(o.seconds)
	}

	var reqs []sim.Request
	var orders [][]int
	var svc *sim.Service
	for i := 0; i < setupRounds; i++ {
		t0, c0 := time.Now(), cpuSeconds()
		reqs = d.requests()
		orders = passOrders(len(reqs), passes, o.seed)
		b0 := time.Now()
		if err := buildSpecs(reqs); err != nil {
			return nil, err
		}
		m.buildMS = append(m.buildMS, float64(time.Since(b0))/float64(time.Millisecond))
		svc = sim.NewService(sim.Options{})
		m.setupS = append(m.setupS, cpuSeconds()-c0)
		m.setupWallS = append(m.setupWallS, time.Since(t0).Seconds())
	}

	w, err := startWindow(o.trace)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for p := 0; p < passes; p++ {
		if p > 0 {
			svc = sim.NewService(sim.Options{})
		}
		m.reps = append(m.reps, m.sweepPass(ctx, svc, reqs, orders[p], exp, deadline))
		st := svc.Stats()
		m.simStats.Simulated += st.Simulated
		m.simStats.MemoHits += st.MemoHits
		m.simStats.DiskHits += st.DiskHits
		m.simStats.WallSeconds += st.WallSeconds
		m.simStats.SimCycles += st.SimCycles
	}
	m.wallS = time.Since(start).Seconds()
	if err := w.stop(m); err != nil {
		return nil, err
	}
	m.peakRSSMB = peakRSSMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// sweepPass runs one pass. With a nonzero deadline it stops dispatching
// once the deadline has passed (short runs); otherwise it runs every
// request.
func (m *measurement) sweepPass(ctx context.Context, svc *sim.Service, reqs []sim.Request, order []int, exp map[string]digest, deadline time.Duration) repetition {
	var (
		rep repetition
		wg  sync.WaitGroup
	)
	next := make(chan int)
	start, cpu0 := time.Now(), cpuSeconds()
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				req := reqs[idx]
				t0 := time.Now()
				out, err := svc.Run(ctx, req)
				span := time.Since(t0)
				if err == nil {
					err = check(exp, req, out)
				}
				m.mu.Lock()
				m.attempted++
				m.runSpans = append(m.runSpans, span)
				if err != nil {
					m.fail(err.Error())
				} else {
					rep.latencies = append(rep.latencies, span)
					rep.instr += out.Result.InstrIssued
					m.agg.add(out.Result)
				}
				m.mu.Unlock()
			}
		}()
	}
	for n, idx := range order {
		if deadline > 0 && n > 0 && time.Since(start) >= deadline {
			break
		}
		select {
		case next <- idx:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(next)
	wg.Wait()
	rep.wallS, rep.cpuS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return rep
}
