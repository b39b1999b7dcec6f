// Command perfbench is the repository benchmark. It runs one named workload
// against the simulator's public layers, checks every outcome against the
// committed expected digests, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output:
//
//	bash perfbench/run.sh --workload issue-bound --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and their meaning are described in perfbench/README.md
// and BENCHMARK.json. All timing is host time taken around calls into the
// layers' public functions; simulated statistics are deterministic and are
// checked, not benchmarked.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	expected string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		trace = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		regen = fs.Bool("regenerate", false, "re-simulate every request with serial ticking and rewrite the expected-outputs file, then exit")
	)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (request order and traffic)")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured run length in seconds")
	fs.StringVar(&o.expected, "expected", "perfbench/expected.json", "expected-outputs file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen {
		if err := regenerate(ctx, o.expected, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if !knownWorkload(o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want %s)\n", o.workload, strings.Join(workloadNames, " | "))
		return 2
	}
	if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = *trace == 1

	var res result
	var rep report
	var err error
	if o.trace {
		res, rep, err = runTraced(ctx, o, stderr)
	} else {
		var m *measurement
		if m, err = measure(ctx, o); err == nil {
			res, rep = m.endToEnd(), m.report(o)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(stderr, "perfbench: failed operation: %s\n", e)
	}
	repJSON, err := json.Marshal(map[string]report{"report": rep})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", repJSON, resJSON)
	return 0
}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// measure runs one workload untraced or traced, as o says.
func measure(ctx context.Context, o options) (*measurement, error) {
	exp, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	if d, ok := sweeps[o.workload]; ok {
		return runSweep(ctx, d, o, exp)
	}
	return runMix(ctx, o, exp)
}

// runTraced measures the workload twice for half the run length each: once
// untraced in a child process (its own heap, so peak memory compares), then
// traced here. It reports the per-layer metrics of the traced half and the
// traced/untraced ratio of each end-to-end metric and of the latencies —
// the tracing overhead.
func runTraced(ctx context.Context, o options, stderr io.Writer) (result, report, error) {
	half := o.seconds / 2
	self, err := os.Executable()
	if err != nil {
		return result{}, report{}, err
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(half, 'g', -1, 64), "--trace", "0", "--expected", o.expected)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return result{}, report{}, fmt.Errorf("untraced half: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var untraced result
	var untracedRep map[string]report
	if len(lines) < 2 {
		return result{}, report{}, fmt.Errorf("untraced half printed %d lines", len(lines))
	}
	if err := json.Unmarshal(lines[len(lines)-1], &untraced); err != nil {
		return result{}, report{}, fmt.Errorf("untraced half: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &untracedRep); err != nil {
		return result{}, report{}, fmt.Errorf("untraced half: %w", err)
	}
	to := o
	to.seconds = half
	m, err := measure(ctx, to)
	if err != nil {
		return result{}, report{}, err
	}
	res := m.perLayer()
	rep := m.report(to)
	rep.TraceOverhead = map[string]float64{}
	for _, name := range overheadMetrics {
		r := ratio(rep.Metrics[name].Median, untracedRep["report"].Metrics[name].Median)
		rep.TraceOverhead[name] = r
		res.Metrics["trace.overhead."+name] = metricValue{Value: r, Unit: unitRatio}
	}
	res.Attempted += untraced.Attempted
	res.Failed += untraced.Failed
	res.Correct = res.Correct && untraced.Correct
	rep.Untraced = untraced.Metrics
	return res, rep, nil
}

// overheadMetrics are compared between the traced and untraced halves.
var overheadMetrics = []string{"sim_kips", "req_per_s", "setup_s", "peak_rss_mb", "latency_p50_ms", "latency_p99_ms"}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo records what the numbers were measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() hostInfo {
	return hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// report is the detailed record printed before the result line: host,
// settings, every repetition's values with their median and quartiles, and
// the request counts.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Host        hostInfo           `json:"host"`
	Repetitions int                `json:"repetitions"`
	Metrics     map[string]summary `json:"metrics"`
	Units       map[string]string  `json:"units"`
	ErrorRatio  float64            `json:"error_ratio"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Fresh       int                `json:"fresh"`
	Repeat      int                `json:"repeat"`
	Errors      []string           `json:"errors,omitempty"`
	// Traced runs only: the untraced half's metrics and traced/untraced.
	Untraced      map[string]metricValue `json:"untraced,omitempty"`
	TraceOverhead map[string]float64     `json:"trace_overhead,omitempty"`
}

// durationSeconds converts a float second count to a Duration.
func durationSeconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
