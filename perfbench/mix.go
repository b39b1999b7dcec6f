package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpusched/internal/fleet"
	"gpusched/internal/server"
	"gpusched/internal/sim"
)

// mixWindows is how many consecutive windows a service-mix run is split
// into; each end-to-end metric is the median over the windows.
const mixWindows = 3

// spanLog records handler spans of POST /v1/simulate at one tier.
type spanLog struct {
	mu       sync.Mutex
	spans    []time.Duration
	rejected int // 429 and 503 answers
}

func (l *spanLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/simulate" {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(t0)
		l.mu.Lock()
		l.spans = append(l.spans, d)
		if sw.status == http.StatusTooManyRequests || sw.status == http.StatusServiceUnavailable {
			l.rejected++
		}
		l.mu.Unlock()
	})
}

// statusWriter remembers the response status; it keeps Flush working for
// the router's streaming relays.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// endpoint is one loopback HTTP server.
type endpoint struct {
	hs  *http.Server
	url string
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	return &endpoint{hs: hs, url: "http://" + ln.Addr().String()}, nil
}

// shardRig is one in-process gpuschedd shard.
type shardRig struct {
	svc   *sim.Service
	srv   *server.Server
	ep    *endpoint
	spans *spanLog
}

// fleetRig is a gpurouter in front of in-process gpuschedd shards, each
// configured with gpuschedd's defaults (disk cache, MaxFlights 4096).
type fleetRig struct {
	dir         string
	shards      []*shardRig
	router      *fleet.Router
	ep          *endpoint
	routerSpans *spanLog
}

const mixShards = 2

func startFleet(traced bool) (*fleetRig, error) {
	dir, err := os.MkdirTemp("", "perfbench-cache-")
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{dir: dir}
	var members []*fleet.Shard
	for i := 0; i < mixShards; i++ {
		svc := sim.NewService(sim.Options{CacheDir: filepath.Join(dir, fmt.Sprintf("s%d", i)), MaxFlights: 4096})
		srv := server.New(svc, server.Config{QueueDepth: 64, ResultTTL: time.Hour, SyncTimeout: 2 * time.Minute})
		sh := &shardRig{svc: svc, srv: srv}
		h := srv.Handler()
		if traced {
			sh.spans = &spanLog{}
			h = sh.spans.wrap(h)
		}
		if sh.ep, err = serve(h); err != nil {
			rig.close()
			return nil, err
		}
		rig.shards = append(rig.shards, sh)
		members = append(members, &fleet.Shard{Name: fmt.Sprintf("s%d", i), URL: sh.ep.url})
	}
	rig.router = fleet.NewRouter(members, fleet.Config{
		Retries: 2, Backoff: 50 * time.Millisecond, ProbeInterval: time.Second, FailAfter: 2,
	})
	rig.router.Start()
	h := rig.router.Handler()
	if traced {
		rig.routerSpans = &spanLog{}
		h = rig.routerSpans.wrap(h)
	}
	if rig.ep, err = serve(h); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// waitReady polls every tier's /readyz until all answer 200.
func (rig *fleetRig) waitReady(ctx context.Context, client *http.Client) error {
	urls := []string{rig.ep.url}
	for _, sh := range rig.shards {
		urls = append(urls, sh.ep.url)
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, u := range urls {
		for {
			if ok, err := getOK(ctx, client, u+"/readyz"); ok {
				break
			} else if ctx.Err() != nil {
				return fmt.Errorf("%s not ready: %v", u, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func getOK(ctx context.Context, client *http.Client, url string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

func (rig *fleetRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rig.ep != nil {
		rig.ep.hs.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}
	if rig.router != nil {
		rig.router.Close()
	}
	for _, sh := range rig.shards {
		sh.ep.hs.Shutdown(ctx) //nolint:errcheck // best-effort teardown
		sh.srv.Shutdown(ctx)   //nolint:errcheck // no jobs were submitted
	}
	os.RemoveAll(rig.dir) //nolint:errcheck // temp dir
}

// call is one completed client request.
type call struct {
	start   time.Duration // since the measurement began
	latency time.Duration
	fresh   bool
	ok      bool
	instr   uint64 // simulated instructions (fresh requests)
}

// runMix measures the service-mix workload: closed-loop clients, each on
// its own connection, sending POST /v1/simulate through the router.
func runMix(ctx context.Context, o options, exp map[string]digest) (*measurement, error) {
	m := &measurement{}
	var (
		rig     *fleetRig
		streams []*mixStream
		clients []*http.Client
	)
	for i := 0; i < setupRounds; i++ {
		if rig != nil {
			rig.close()
			for _, c := range clients {
				c.CloseIdleConnections()
			}
		}
		t0, c0 := time.Now(), cpuSeconds()
		singles, pairs := mixBase()
		b0 := time.Now()
		if err := buildSpecs(append(append([]sim.Request(nil), singles...), pairs...)); err != nil {
			return nil, err
		}
		m.buildMS = append(m.buildMS, float64(time.Since(b0))/float64(time.Millisecond))
		streams, clients = nil, nil
		for c := 0; c < mixClients; c++ {
			streams = append(streams, newMixStream(o.seed, c, singles, pairs))
			clients = append(clients, &http.Client{
				Transport: &http.Transport{MaxIdleConnsPerHost: 1},
				Timeout:   2 * time.Minute,
			})
		}
		var err error
		if rig, err = startFleet(o.trace); err != nil {
			return nil, err
		}
		if err := rig.waitReady(ctx, clients[0]); err != nil {
			rig.close()
			return nil, err
		}
		m.setupS = append(m.setupS, cpuSeconds()-c0)
		m.setupWallS = append(m.setupWallS, time.Since(t0).Seconds())
	}
	defer func() {
		rig.close()
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()

	w, err := startWindow(o.trace)
	if err != nil {
		return nil, err
	}
	length := durationSeconds(o.seconds)
	win := length / mixWindows
	calls := make([][]call, mixClients)
	// cpuAt[i] is the process CPU time at the start of window i; the last
	// entry is taken when the last call has completed.
	cpuAt := make([]float64, mixWindows+1)
	var wg, sampler sync.WaitGroup
	start := time.Now()
	cpuAt[0] = cpuSeconds()
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := 1; i < mixWindows; i++ {
			select {
			case <-time.After(time.Until(start.Add(win * time.Duration(i)))):
				cpuAt[i] = cpuSeconds()
			case <-ctx.Done():
				return
			}
		}
	}()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < length && ctx.Err() == nil {
				req, fresh := streams[c].next()
				calls[c] = append(calls[c], m.mixCall(ctx, clients[c], rig.ep.url, req, fresh, exp, start))
			}
		}(c)
	}
	wg.Wait()
	sampler.Wait()
	end := time.Since(start)
	cpuAt[mixWindows] = cpuSeconds()
	m.wallS = end.Seconds()
	if err := w.stop(m); err != nil {
		return nil, err
	}
	m.peakRSSMB = peakRSSMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var all []call
	for c := range calls {
		all = append(all, calls[c]...)
	}
	m.splitWindows(all, win, end, cpuAt)
	for _, cl := range all {
		m.attempted++
		if cl.fresh {
			m.fresh++
		} else {
			m.repeat++
		}
	}
	if err := m.collectFleet(ctx, clients[0], rig); err != nil {
		return nil, err
	}
	return m, nil
}

// mixCall sends one request and checks its answer. The latency covers the
// round trip, reading the whole body; decoding and checking come after.
func (m *measurement) mixCall(ctx context.Context, client *http.Client, url string, req sim.Request, fresh bool, exp map[string]digest, start time.Time) call {
	cl := call{fresh: fresh}
	body, err := json.Marshal(req)
	if err == nil {
		var resp []byte
		t0 := time.Now()
		cl.start = t0.Sub(start)
		resp, err = post(ctx, client, url+"/v1/simulate", body)
		cl.latency = time.Since(t0)
		if err == nil {
			var ans struct {
				Key     string      `json:"key"`
				Outcome sim.Outcome `json:"outcome"`
			}
			if err = json.Unmarshal(resp, &ans); err == nil {
				if ans.Key != req.Key() {
					err = fmt.Errorf("answer for key %q, want %q", ans.Key, req.Key())
				} else {
					err = check(exp, req, ans.Outcome)
				}
			}
			if err == nil && fresh {
				cl.instr = ans.Outcome.Result.InstrIssued
				m.mu.Lock()
				m.agg.add(ans.Outcome.Result)
				m.mu.Unlock()
			}
		}
	}
	cl.ok = err == nil
	if err != nil {
		m.mu.Lock()
		m.fail(err.Error())
		m.mu.Unlock()
	}
	return cl
}

func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// splitWindows splits the calls by start time into mixWindows windows of
// length win; the last window runs until the last call completed.
func (m *measurement) splitWindows(all []call, win, end time.Duration, cpuAt []float64) {
	for i := 0; i < mixWindows; i++ {
		lo, hi := win*time.Duration(i), win*time.Duration(i+1)
		last := i == mixWindows-1
		if last {
			hi = end
		}
		rep := repetition{wallS: (hi - lo).Seconds(), cpuS: cpuAt[i+1] - cpuAt[i]}
		for _, cl := range all {
			if cl.start < lo || (cl.start >= hi && !last) || !cl.ok {
				continue
			}
			rep.latencies = append(rep.latencies, cl.latency)
			rep.instr += cl.instr
		}
		m.reps = append(m.reps, rep)
	}
}

// collectFleet reads the fleet's counters (GET /v1/fleet/stats and each
// shard's /v1/stats) and, when traced, the handler spans.
func (m *measurement) collectFleet(ctx context.Context, client *http.Client, rig *fleetRig) error {
	var fs struct {
		Fleet struct {
			Failovers     uint64    `json:"failovers"`
			ForwardErrors uint64    `json:"forward_errors"`
			Sim           sim.Stats `json:"sim"`
		} `json:"fleet"`
	}
	if err := getJSON(ctx, client, rig.ep.url+"/v1/fleet/stats", &fs); err != nil {
		return err
	}
	m.simStats = fs.Fleet.Sim
	m.fwdErrors, m.failovers = fs.Fleet.ForwardErrors, fs.Fleet.Failovers
	for _, sh := range rig.shards {
		var ss struct {
			Jobs struct {
				Rejected int `json:"rejected"`
			} `json:"jobs"`
		}
		if err := getJSON(ctx, client, sh.ep.url+"/v1/stats", &ss); err != nil {
			return err
		}
		m.rejected += ss.Jobs.Rejected
		if sh.spans != nil {
			sh.spans.mu.Lock()
			m.shardSpans = append(m.shardSpans, sh.spans.spans...)
			m.rejected += sh.spans.rejected
			sh.spans.mu.Unlock()
		}
	}
	if rig.routerSpans != nil {
		rig.routerSpans.mu.Lock()
		m.routerSpans = append(m.routerSpans, rig.routerSpans.spans...)
		rig.routerSpans.mu.Unlock()
	}
	return nil
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New(url + ": " + resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
