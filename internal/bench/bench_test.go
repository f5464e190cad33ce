package bench

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"parconn"
	"parconn/internal/obs"
)

func TestInputsCoverPaperTable1(t *testing.T) {
	want := []string{"random", "rMat", "rMat2", "3D-grid", "line", "com-Orkut"}
	ins := Inputs()
	if len(ins) != len(want) {
		t.Fatalf("%d inputs, want %d", len(ins), len(want))
	}
	for i, name := range want {
		if ins[i].Name != name {
			t.Fatalf("input %d is %q, want %q", i, ins[i].Name, name)
		}
	}
}

func TestInputsBuildAtTinyScale(t *testing.T) {
	for _, in := range Inputs() {
		g := in.Make(0.001)
		if g.NumVertices() < 1 {
			t.Fatalf("%s: empty graph at tiny scale", in.Name)
		}
	}
}

func TestInputByName(t *testing.T) {
	if _, err := InputByName("random"); err != nil {
		t.Fatal(err)
	}
	if _, err := InputByName("nope"); err == nil {
		t.Fatal("unknown input accepted")
	}
}

func TestMedian(t *testing.T) {
	calls := 0
	d := Median(3, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 3 {
		t.Fatalf("calls=%d", calls)
	}
	if d < time.Millisecond {
		t.Fatalf("median %v too small", d)
	}
	if Median(0, func() {}) < 0 {
		t.Fatal("trials=0 mishandled")
	}
}

func TestSecondsFormat(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0",
		1500 * time.Millisecond: "1.50",
		123 * time.Millisecond:  "0.123",
		15 * time.Second:        "15.0",
		150 * time.Second:       "150",
	}
	for d, want := range cases {
		if got := Seconds(d); got != want {
			t.Fatalf("Seconds(%v)=%q want %q", d, got, want)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("a", "bbbb")
	tab.Add("xxx", "y")
	tab.Addf(12, 3.5)
	tab.Print(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "a    bbbb") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[3], "12") || !strings.Contains(lines[3], "3.5") {
		t.Fatalf("Addf row wrong: %q", lines[3])
	}
}

// TestExperimentsSmoke runs every experiment at minuscule scale to ensure
// the whole harness executes end-to-end.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	var buf bytes.Buffer
	cfg := Config{Scale: 0.002, Trials: 1, Out: &buf, Seed: 1, Threads: []int{1, 2}}
	if err := Run("all", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, marker := range []string{"Table 1", "Table 2", "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("output missing %q", marker)
		}
	}
	for _, alg := range []string{"decomp-arb-hybrid-CC", "serial-SF", "multistep-CC"} {
		if !strings.Contains(out, alg) {
			t.Fatalf("output missing algorithm %q", alg)
		}
	}
	if err := Run("nope", cfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestCSVEmission(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Scale: 0.002, Trials: 1, Out: &buf, Seed: 1, CSVDir: dir}
	Table1(cfg)
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // header + 6 inputs
		t.Fatalf("csv has %d rows", len(rows))
	}
	if rows[0][0] != "Input Graph" || rows[1][0] != "random" {
		t.Fatalf("csv content wrong: %v", rows[:2])
	}
}

func TestSlugify(t *testing.T) {
	if slugify("Figure 5-decomp-min-CC") != "figure-5-decomp-min-cc" {
		t.Fatalf("got %q", slugify("Figure 5-decomp-min-CC"))
	}
}

// TestPhaseColumnsFold pins the Figures 5-7 fold on a hand-built trace:
// phases sum by name across levels, setup is charged to init, and measure
// lands in no column.
func TestPhaseColumnsFold(t *testing.T) {
	ms := time.Millisecond
	tr := parconn.NewTrace()
	for _, p := range []parconn.Phase{
		{Level: 0, Name: obs.PhaseSetup, Duration: 1 * ms},
		{Level: 0, Name: obs.PhaseInit, Duration: 2 * ms},
		{Level: 0, Name: obs.PhaseBFSSparse, Duration: 4 * ms},
		{Level: 0, Name: obs.PhaseMeasure, Duration: 8 * ms},
		{Level: 0, Name: obs.PhaseContract, Duration: 16 * ms},
		{Level: 1, Name: obs.PhaseInit, Duration: 32 * ms},
		{Level: 1, Name: obs.PhaseBFSSparse, Duration: 64 * ms},
		{Level: 1, Name: obs.PhaseFilterEdges, Duration: 128 * ms},
	} {
		tr.Phase(p)
	}
	cols := []string{obs.PhaseInit, obs.PhaseBFSPre, obs.PhaseBFSSparse, obs.PhaseBFSDense, obs.PhaseFilterEdges, obs.PhaseContract}
	got := phaseColumns(tr.Phases(), cols)
	want := []time.Duration{35 * ms, 0, 68 * ms, 0, 128 * ms, 16 * ms}
	if !slices.Equal(got, want) {
		t.Fatalf("columns %v, want %v", got, want)
	}
}
