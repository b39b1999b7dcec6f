package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildBench compiles the benchmark command once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "perfbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building the benchmark: %v", err)
	}
	return bin
}

// runBench runs the benchmark and returns its report and result lines.
func runBench(t *testing.T, bin string, args ...string) (report, map[string]json.RawMessage, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("perfbench %v: %v\n%s", args, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("perfbench %v printed %d lines, want a report and a result", args, len(lines))
	}
	var rep map[string]report
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		t.Fatalf("report line: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &raw); err != nil {
		t.Fatalf("result line: %v", err)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return rep["report"], raw, res
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and traced
// at a very short length and checks the last line against BENCHMARK.json:
// exactly the end-to-end (untraced) or per-layer (traced) metrics, each
// with its unit, and no failed operation.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, command knows %v", names, workloadNames)
	}
	bin := buildBench(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			rep, raw, res := runBench(t, bin, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--expected", "expected.json")
			keys := make([]string, 0, len(raw))
			for k := range raw {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("%s trace=%s: result keys %v, want %v", w, trace, keys, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d, errors %v", w, trace, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%s: metric %s = %v", w, trace, m.Name, got.Value)
				}
			}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
			if rep.Seed != 3 || rep.Host.NumCPU < 1 || rep.Fresh+rep.Repeat != rep.Attempted && w == "service-mix" {
				t.Errorf("%s trace=%s: report seed=%d host=%+v fresh=%d repeat=%d attempted=%d",
					w, trace, rep.Seed, rep.Host, rep.Fresh, rep.Repeat, rep.Attempted)
			}
		}
	}
}

// TestCorruptDigestIsAFailure corrupts the expected digest of the first
// request a workload sends and checks the run counts it as failed.
func TestCorruptDigestIsAFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	bin := buildBench(t)
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	singles, pairs := mixBase()
	first, _ := newMixStream(5, 0, singles, pairs).next()
	sweep := sweeps["issue-bound"].requests()
	cases := map[string]string{
		"service-mix": baseKey(first),
		"issue-bound": baseKey(sweep[passOrders(len(sweep), 1, 5)[0][0]]),
	}
	for w, key := range cases {
		d, ok := exp[key]
		if !ok {
			t.Fatalf("%s: no expected digest for %s", w, key)
		}
		corrupt := make(map[string]digest, len(exp))
		for k, v := range exp {
			corrupt[k] = v
		}
		d.Cycles++
		corrupt[key] = d
		data, err := json.Marshal(expectedFile{Entries: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "expected.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, _, res := runBench(t, bin, "--workload", w, "--seed", "5", "--seconds", "0.2", "--trace", "0", "--expected", path)
		if res.Correct || res.Failed == 0 || rep.ErrorRatio <= 0 {
			t.Errorf("%s with a corrupt digest: correct=%v failed=%d error_ratio=%v, want a failure",
				w, res.Correct, res.Failed, rep.ErrorRatio)
		}
	}
}

// TestQuartilesMatchPython checks summarize against values from Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %v/%v/%v, want %v/%v/%v", c.in, s.Q1, s.Median, s.Q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCPUSharesFromRealProfile decodes a profile of this process.
func TestCPUSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || x == 0 {
		t.Fatalf("no samples in a 300ms busy profile")
	}
	sum := 0.0
	for _, l := range profileLayerNames {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("busy loop in package main: other share %v, want most samples", shares["other"])
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gpusched/internal/gpu/parexec.(*Pool).loop":      "gpu.parexec",
		"gpusched/internal/gpu.(*GPU).RunContext":         "gpu",
		"gpusched/internal/sm.(*SM).Tick":                 "sm",
		"gpusched/internal/mem.(*System).TickShard":       "mem",
		"gpusched/internal/workloads.(*loopProgram).Next": "workloads",
		"gpusched/internal/core.(*LCS).Tick":              "core",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/atomic.(*Uint32).Load":          "runtime",
		"encoding/json.(*decodeState).object":             "other",
		"gpusched/internal/smx.F":                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
