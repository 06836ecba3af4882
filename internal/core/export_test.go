package core

import "interplab/internal/trace"

// RunWithSink exposes run to the external test package, which can import
// the workload suite (this package cannot: workloads imports core).
func RunWithSink(p Program, sink trace.Sink) (Result, error) {
	return run(p, sink, measureConfig{})
}
