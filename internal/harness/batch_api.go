package harness

import (
	"fmt"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/labstats"
	"interplab/internal/rescache"
)

// This file is the scheduler's exported face for callers outside the
// experiment set — today the measurement server (internal/labserver),
// which coalesces HTTP requests into batches and fans them out over the
// same worker pool the experiments use.
//
// The exported Batch differs from the experiments' internal batches in its
// error contract: experiments stop at the first failure in submission
// order (one broken measurement invalidates the table being rendered),
// while a server batch carries unrelated requests, so every job runs to
// completion, failures are reported per job, and a panicking measurement
// is isolated to its own job instead of crashing the process.

// BatchJob describes one measurement submitted to an exported Batch.
type BatchJob struct {
	// Kind selects the measurement: "measure" (software metrics only),
	// "pipeline" (through the simulated processor, using Config), or
	// "sweep" (through the instruction-cache sweep, which must be private
	// to this job — jobs run concurrently).
	Kind    string
	Program core.Program
	Config  alphasim.Config
	Sweep   *alphasim.ICacheSweep

	// Scope overrides the batch Options' cache scope for this job, so
	// requests aimed at different experiments/scales can share a batch and
	// still hit the entries a CLI run of that experiment wrote.  nil
	// inherits the batch scope.
	Scope *rescache.Scope

	// Profiling attaches the attribution profiler to this job alone
	// (Options.Profile attaches it to every job of a batch).
	Profiling bool
}

// Batch is an exported measurement batch: submit jobs, run them on
// Options.Parallelism workers, then read each job's result and error.
type Batch struct {
	b *batch
}

// NewBatch starts an exported batch running under opt (Parallelism,
// Telemetry, Tracer, Cache; Out and Manifest are unused — callers render
// results themselves).
func NewBatch(opt Options) *Batch {
	b := opt.newBatch()
	b.keepGoing = true
	return &Batch{b: b}
}

// Submit enqueues one job, validating its kind.  The returned Job is
// readable after Run returns.
func (b *Batch) Submit(bj BatchJob) (*Job, error) {
	switch bj.Kind {
	case "measure", "pipeline":
	case "sweep":
		if bj.Sweep == nil {
			return nil, fmt.Errorf("harness: sweep job for %s needs a sweep", bj.Program.ID())
		}
	default:
		return nil, fmt.Errorf("harness: unknown job kind %q (measure, pipeline, sweep)", bj.Kind)
	}
	j := b.b.addJob(&job{
		kind:      bj.Kind,
		prog:      bj.Program,
		cfg:       bj.Config,
		sweep:     bj.Sweep,
		scope:     bj.Scope,
		profiling: bj.Profiling,
	})
	return &Job{j: j}, nil
}

// Run executes every submitted job.  Unlike the experiments' batches it
// never stops early: each job runs (or fails) independently, and the
// returned error reports only batch-level problems, never an individual
// job's — read those from Job.Err.
func (b *Batch) Run() error {
	return b.b.run()
}

// Sched returns the drained batch's speedup ledger (nil before Run, or
// for an empty batch).
func (b *Batch) Sched() *labstats.SchedStats { return b.b.lastSched }

// Job is one submitted measurement's handle.
type Job struct {
	j *job
}

// Ran reports whether the job executed (to success or error).
func (j *Job) Ran() bool { return j.j.ran }

// Err returns the job's measurement error, if any.
func (j *Job) Err() error { return j.j.err }

// Result returns the job's measured result (zero until Run completes).
func (j *Job) Result() core.Result { return j.j.res }

// Duration returns the job's execution wall time.
func (j *Job) Duration() time.Duration { return j.j.dur }

// Sweep returns the sweep the job was submitted with (nil for non-sweep
// jobs), for reading its per-geometry points after Run.
func (j *Job) Sweep() *alphasim.ICacheSweep { return j.j.sweep }
