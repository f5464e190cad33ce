package obs

import "runtime"

// Env records the execution environment a trace was captured in. Phase
// durations from different environments are not comparable — a trace
// captured at GOMAXPROCS=1 has no parallel rounds at all — so RunStart
// events and JSONL trace headers carry an Env.
type Env struct {
	GoVersion  string `json:"go_version,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	OS         string `json:"os,omitempty"`
	Arch       string `json:"arch,omitempty"`
}

// CaptureEnv reads the current process environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// IsZero reports whether no environment was recorded (traces from before
// the field existed).
func (e Env) IsZero() bool { return e == Env{} }

// Meta is the trace header record: the first line a JSONLWriter emits, so a
// trace file identifies its capture environment even before the first run.
// It is written by the sink itself, not delivered through the Recorder
// interface (it describes the recording, not the computation).
type Meta struct {
	Tool string `json:"tool,omitempty"` // writing program, e.g. "cmd/connect"
	Env  Env    `json:"env"`
}
