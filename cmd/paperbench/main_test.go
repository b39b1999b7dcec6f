package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestResolveCacheDir(t *testing.T) {
	cases := []struct {
		cache, out, want string
	}{
		{"auto", "results", filepath.Join("results", ".simcache")},
		{"auto", "", ""},
		{"off", "results", ""},
		{"", "results", ""},
		{"/tmp/explicit", "", "/tmp/explicit"},
	}
	for _, c := range cases {
		if got := resolveCacheDir(c.cache, c.out); got != c.want {
			t.Errorf("resolveCacheDir(%q, %q) = %q, want %q", c.cache, c.out, got, c.want)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"table1", "fig5", "fig13"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "nope"},
		{"-exp", "no-such-experiment"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

// TestRunOneExperimentWritesCSV runs the cheapest experiment end to end and
// checks both outputs: the rendered table on stdout and the CSV file.
func TestRunOneExperimentWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errb strings.Builder
	code := run([]string{"-exp", "table1", "-scale", "test", "-out", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "table1") {
		t.Errorf("stdout missing rendered table:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "parameter,value") {
		t.Errorf("CSV missing header: %q", string(data))
	}
}

// TestRunSurfacesExperimentErrors forces a failure (tiny core count cannot
// be forced here, so use a bad experiment list instead) — covered above —
// and verifies a failing simulation propagates as exit code 1 with a
// summary. The cheapest way to make an experiment fail deterministically is
// an out-of-range cores override: Request.Validate rejects cores > 255.
func TestRunSurfacesExperimentErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds simulations")
	}
	var out, errb strings.Builder
	code := run([]string{"-exp", "table2", "-scale", "test", "-out", "", "-cores", "300"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run with broken config = %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "experiments failed") {
		t.Errorf("stderr missing failure summary: %q", errb.String())
	}
}
