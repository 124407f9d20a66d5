package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"broadcastcc/internal/experiments"
)

// bcbench runs the command in-process and returns its exit status and
// both streams.
func bcbench(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestRejectsBeforeRunning: a command line bcbench cannot honour exits 2
// before any simulation runs — nothing reaches stdout, no file appears.
func TestRejectsBeforeRunning(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "x.csv")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"csv of a study", []string{"-figure", "wire", "-csv", csv}, "-csv requires a single sweep"},
		{"csv of all", []string{"-figure", "all", "-csv", csv}, "-csv requires a single sweep"},
		{"unknown figure", []string{"-figure", "bogus"}, `unknown figure "bogus"`},
		{"bad scale-clients", []string{"-figure", "scale", "-scale-clients", "10,x"}, "bad -scale-clients"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, stdout, stderr := bcbench(tc.args...)
			if status != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 mentioning %q", status, stdout, stderr, tc.want)
			}
			if _, err := os.Stat(csv); err == nil {
				t.Error("a CSV file was written")
			}
		})
	}
}

// TestFigureIDsReachTheUser: the unknown-figure message and the -figure
// usage text both name every id of the figure table.
func TestFigureIDsReachTheUser(t *testing.T) {
	ids := strings.Split(experiments.FigureIDs(), ", ")
	if len(ids) != 20 {
		t.Fatalf("figure table has %d ids, want 20: %v", len(ids), ids)
	}
	_, _, unknown := bcbench("-figure", "bogus")
	status, _, usage := bcbench("-h")
	if status != 0 {
		t.Errorf("-h exits %d, want 0", status)
	}
	for _, id := range ids {
		if !strings.Contains(unknown, " "+id+",") {
			t.Errorf("unknown-figure message omits %q: %s", id, unknown)
		}
		if !strings.Contains(usage, " "+id+",") {
			t.Errorf("-figure usage omits %q: %s", id, usage)
		}
	}
}

// TestCSVOfASweep: the accepted form still writes the series.
func TestCSVOfASweep(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "x.csv")
	status, stdout, stderr := bcbench("-figure", "4b", "-txns", "40", "-quiet", "-csv", csv)
	if status != 0 || !strings.HasPrefix(stdout, "Figure 4b:") {
		t.Fatalf("exit %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 6 || !strings.HasPrefix(lines[0], "x,Datacycle_response,") {
		t.Errorf("CSV:\n%s", data)
	}
}

var figuresCheck = flag.Bool("figures-check", false, "run TestFiguresCheck (make figures-check)")

// stripObs removes every "obs" block of a decoded BENCH document.
func stripObs(v any) {
	switch v := v.(type) {
	case map[string]any:
		delete(v, "obs")
		for _, c := range v {
			stripObs(c)
		}
	case []any:
		for _, c := range v {
			stripObs(c)
		}
	}
}

// TestFiguresCheck is `make figures-check`: every byte bcbench prints
// and writes for the two pinned command lines, against
// testdata/all-txns50.stdout and the digests of testdata/figures.sha256
// (whose header says how BENCH_wire.json is digested and why).
func TestFiguresCheck(t *testing.T) {
	if !*figuresCheck {
		t.Skip("about 20 s; run with -figures-check (make figures-check)")
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("the manifest is pinned to linux/amd64, this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	manifest, err := os.ReadFile("testdata/figures.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(manifest), "\n") {
		if digest, name, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(line, "#") {
			want[name] = digest
		}
	}
	check := func(name string, data []byte) {
		t.Helper()
		if name == "BENCH_wire.json" {
			var doc any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			stripObs(doc)
			if data, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
		}
		got := fmt.Sprintf("%x", sha256.Sum256(data))
		if want[name] == "" {
			t.Errorf("not in the manifest:\n%s  %s", got, name)
		} else if got != want[name] {
			t.Errorf("digest moved; the manifest line would now be\n%s  %s", got, name)
		}
		delete(want, name)
	}
	checkDir := func(dir, prefix string) {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			check(prefix+filepath.Base(path), data)
		}
	}

	dir := t.TempDir()
	status, stdout, stderr := bcbench("-figure", "all", "-txns", "50", "-quiet", "-json", dir)
	if status != 0 {
		t.Fatalf("-figure all: exit %d: %s", status, stderr)
	}
	golden, err := os.ReadFile("testdata/all-txns50.stdout")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(golden) {
		got, exp := strings.Split(stdout, "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("stdout differs from testdata/all-txns50.stdout at line %d:\n got %q\nwant %q", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("stdout has %d lines, testdata/all-txns50.stdout %d", len(got), len(exp))
	}
	checkDir(dir, "")

	// bench/BENCH_shard.json is the committed paper-scale artifact of the
	// shard study, which -txns does not reach.
	shard, err := os.ReadFile(filepath.Join(dir, "BENCH_shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../../bench/BENCH_shard.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shard, committed) {
		t.Error("BENCH_shard.json differs from the committed bench/BENCH_shard.json")
	}

	dir = t.TempDir()
	status, stdout, stderr = bcbench("-figure", "scale", "-scale-clients", "2000,4000", "-quiet", "-json", dir)
	if status != 0 {
		t.Fatalf("-figure scale: exit %d: %s", status, stderr)
	}
	check("scale.stdout", []byte(stdout))
	checkDir(dir, "scale/")

	for name := range want {
		t.Errorf("%s is in the manifest but was not written", name)
	}
}
