package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parconn"
)

func TestBenchSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-experiment", "table1", "-scale", "0.002", "-trials", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 1") || !strings.Contains(out.String(), "com-Orkut") {
		t.Fatalf("output wrong:\n%s", out.String())
	}
}

func TestBenchThreadsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-experiment", "fig8", "-scale", "0.01", "-trials", "1", "-threads", "1,2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 8") {
		t.Fatalf("output wrong:\n%s", out.String())
	}
}

// TestBenchTrace checks that -trace records every timed run of an experiment
// as a schema-valid JSONL stream (trials runs per measurement).
func TestBenchTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "bench.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{"-experiment", "table2", "-scale", "0.002", "-trials", "1", "-trace", tracePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit=%d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "events written to") {
		t.Fatalf("trace report missing:\n%s", out.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := parconn.ValidateTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	// table2 times every implementation on every input; even at one trial
	// that is dozens of recorded runs.
	if sum.Runs < 4 {
		t.Fatalf("summary %+v: want >= 4 recorded runs", sum)
	}
}

func TestBenchTraceBadPath(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "table1", "-trace", "/nonexistent/dir/t.jsonl"}, &out, &errb); code == 0 {
		t.Fatal("unwritable trace path accepted")
	}
}

func TestBenchErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bogus experiment: exit=%d", code)
	}
	// The unknown name must fail upfront with usage, before any experiment
	// (or side effect like a trace file) starts.
	if msg := errb.String(); !strings.Contains(msg, `unknown experiment "bogus"`) ||
		!strings.Contains(msg, "usage:") || !strings.Contains(msg, "table2") {
		t.Fatalf("unknown-experiment message wrong:\n%s", msg)
	}
	// serve and json name no experiment: perfbench measures serving.
	for _, name := range []string{"serve", "json"} {
		errb.Reset()
		if code := run([]string{"-experiment", name}, &out, &errb); code != 2 {
			t.Fatalf("-experiment %s: exit=%d", name, code)
		}
		if msg := errb.String(); !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "table2") {
			t.Fatalf("-experiment %s: message wrong:\n%s", name, msg)
		}
	}
	if code := run([]string{"-threads", "x"}, &out, &errb); code == 0 {
		t.Fatal("bad threads accepted")
	}
	if code := run([]string{"-threads", "0"}, &out, &errb); code == 0 {
		t.Fatal("zero threads accepted")
	}
	if code := run([]string{"-badflag"}, &out, &errb); code == 0 {
		t.Fatal("bad flag accepted")
	}
	if code := run([]string{"-procs", "x"}, &out, &errb); code == 0 {
		t.Fatal("bad procs accepted")
	}
	if code := run([]string{"-procs", "1,2,4"}, &out, &errb); code == 0 {
		t.Fatal("procs list accepted")
	}
	if code := run([]string{"-procs", "-1"}, &out, &errb); code == 0 {
		t.Fatal("negative procs accepted")
	}
}

// TestBenchHelp pins -h as a successful exit: asking for usage is not an
// error.
func TestBenchHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h: exit=%d", code)
	}
	if !strings.Contains(errb.String(), "-experiment") {
		t.Fatalf("usage missing:\n%s", errb.String())
	}
}

// TestBenchUnknownExperimentNoTraceFile checks the fail-fast ordering: a
// bad experiment name must not create the -trace output file.
func TestBenchUnknownExperimentNoTraceFile(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "bogus", "-trace", tracePath}, &out, &errb); code != 2 {
		t.Fatalf("exit=%d", code)
	}
	if _, err := os.Stat(tracePath); err == nil {
		t.Fatal("trace file created despite unknown experiment")
	}
}
