// Package core is the laboratory's public face: it ties workload programs,
// the instrumentation layer (internal/atom), and the processor simulator
// (internal/alphasim) into the measurement pipeline the paper's numbers
// come from.
//
// A Program knows how to run some benchmark under one of the five systems
// (compiled C, MIPSI, Java, Perl, Tcl).  Measure runs it against a fresh
// image/probe/OS and returns a Result holding the paper's software metrics
// (virtual commands, native instructions, fetch/decode vs. execute,
// per-command and per-region accounts).  MeasureWithPipeline additionally
// streams the native-instruction trace through the simulated 2-issue
// processor and reports cycles and stall breakdowns (Figure 3), and
// MeasureWithSweep drives the Figure 4 instruction-cache sweeps.
package core

import (
	"fmt"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/gfx"
	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// System identifies one of the measured execution systems.
type System string

// The five systems of the paper.
const (
	SysC     System = "C"
	SysMIPSI System = "MIPSI"
	SysJava  System = "Java"
	SysPerl  System = "Perl"
	SysTcl   System = "Tcl"
)

// Ctx is the per-run environment handed to a program.
type Ctx struct {
	Image *atom.Image
	Probe *atom.Probe
	Sink  trace.Sink
	OS    *vfs.OS

	display *gfx.Display
	size    int
	batch   trace.BatchStats
}

// Display lazily creates the run's framebuffer (native graphics library).
func (c *Ctx) Display(w, h int) *gfx.Display {
	if c.display == nil {
		c.display = gfx.New(c.Image, c.Probe, w, h)
	}
	return c.display
}

// SetProgramSize records the interpreted program's input size in bytes —
// Table 2's "Size" column.
func (c *Ctx) SetProgramSize(n int) { c.size = n }

// RecordBatch merges a workload-side producer's batch accounting into the
// run's totals — the compiled-C path (mipsi.Native) batches internally,
// bypassing the probe, and reports here so Result.Batch covers the whole
// stream.
func (c *Ctx) RecordBatch(bs trace.BatchStats) { c.batch.Add(bs) }

// Program is one benchmark under one system.
type Program struct {
	System System
	Name   string
	Desc   string
	Run    func(ctx *Ctx) error

	// Variant distinguishes programs that share an ID but run the
	// interpreter with different knobs (the ablation's flat-memory,
	// threaded-dispatch, and cached-parse arms all measure "MIPSI/des"-
	// style identities).  It does not appear in rendered output, but it is
	// part of the measurement-cache key: two same-ID programs whose
	// behavior differs MUST carry different variants, or the cache would
	// hand one the other's result.
	Variant string
}

// ID returns "system/name".
func (p Program) ID() string { return fmt.Sprintf("%s/%s", p.System, p.Name) }

// Result is the outcome of a measured run.
type Result struct {
	Program Program

	// Stats holds the probe's books: commands, instruction phases,
	// per-op and per-region accounts.  For SysC runs the probe is unused
	// and Stats is zero except where noted.
	Stats atom.Stats

	// Counter tallies the native-instruction stream (counted in the probe
	// when nothing else consumes it).
	Counter trace.Counter

	// SizeBytes is the interpreted program's input size.
	SizeBytes int

	// Pipe holds processor-simulation results when requested.
	Pipe *alphasim.Stats

	// Display output digest, when the workload drew.
	FrameChecksum uint32

	// Stdout is the run's captured console output.
	Stdout string

	// Samples holds the telemetry observer's periodic snapshots when the
	// run was measured with WithTelemetry; nil otherwise.
	Samples []telemetry.Sample

	// Profile holds the attribution profile when the run was measured with
	// WithProfiling; nil otherwise.  For pipeline runs it includes
	// cache-miss attribution.
	Profile *profile.Profile

	// FromCache reports that the result was restored from the measurement
	// cache (WithCache) instead of executing the workload.  Restored
	// results are byte-for-byte interchangeable with fresh ones except for
	// Samples, which only a live stream produces.
	FromCache bool

	// Batch accounts the batched event pipeline: events and blocks
	// delivered to the sinks, split by flush trigger (fill or final),
	// summed over every producer in the run (the probe, plus the
	// compiled-C path's internal batcher).  Blocks are full except each
	// producer's last, profiled runs included: attribution rides segment
	// marks inside the block, never a flush.  The probe contributes
	// nothing when the run's only consumer is its counter: it then counts
	// instead of emitting, so a counter-only measurement of an
	// interpreted program has zero Batch.
	Batch trace.BatchStats
}

// Commands returns the virtual-command count.  For compiled C the paper
// equates commands with native instructions (Table 2's C row).
func (r Result) Commands() uint64 {
	if r.Program.System == SysC {
		return r.Counter.Total
	}
	return r.Stats.Commands
}

// NativeInstructions returns the total native instructions executed,
// excluding startup (precompilation), matching Table 2's accounting.
func (r Result) NativeInstructions() uint64 {
	if r.Program.System == SysC {
		return r.Counter.Total
	}
	return r.Stats.Instructions - r.Stats.Startup
}

// StartupInstructions returns the precompilation charge (Perl's
// parenthesized column in Table 2).
func (r Result) StartupInstructions() uint64 { return r.Stats.Startup }

// PerCommand returns the fetch/decode and execute averages of Table 2.
func (r Result) PerCommand() (fd, ex float64) {
	if r.Program.System == SysC {
		return 0, 1
	}
	return r.Stats.InstructionsPerCommand()
}

// measureConfig carries the optional instrumentation of a measured run.
type measureConfig struct {
	tracer      *telemetry.Tracer
	reg         *telemetry.Registry
	sampleEvery uint64
	profiling   bool
	lane        int

	cache      *rescache.Cache
	cacheScope rescache.Scope
}

// newMeasureConfig applies the options.
func newMeasureConfig(opts []MeasureOption) measureConfig {
	var mc measureConfig
	for _, o := range opts {
		o(&mc)
	}
	return mc
}

// MeasureOption configures optional telemetry on Measure* calls.
type MeasureOption func(*measureConfig)

// WithTracer records spans for the run (workload execution, stats
// collection) into tr.  A nil tracer is allowed and disables tracing.
func WithTracer(tr *telemetry.Tracer) MeasureOption {
	return func(c *measureConfig) { c.tracer = tr }
}

// WithTelemetry wires the run's native-instruction stream through a
// sampling observer feeding reg, and counts runs/events there.  A nil
// registry is allowed and disables metrics (the event path is then
// byte-for-byte the uninstrumented one).
func WithTelemetry(reg *telemetry.Registry) MeasureOption {
	return func(c *measureConfig) { c.reg = reg }
}

// WithSampleInterval sets the observer's sampling period in events
// (default 65536).  Only meaningful together with WithTelemetry.
func WithSampleInterval(n uint64) MeasureOption {
	return func(c *measureConfig) { c.sampleEvery = n }
}

// WithTraceLane attributes the run's spans to the given trace lane
// (Chrome trace tid).  The harness's parallel scheduler gives each worker
// its own lane so concurrent runs render side by side; 0 (the default)
// means the main lane.
func WithTraceLane(lane int) MeasureOption {
	return func(c *measureConfig) { c.lane = lane }
}

// WithCache consults (and fills) the measurement cache c before executing:
// when an entry exists for the exact measurement — same lab build, same
// scope (experiment, scale), same program, kind, processor configuration,
// sweep geometry, and profiling mode — the Result is restored from disk
// without running the workload, and Result.FromCache is set.  On a miss the
// measurement runs normally and its result is stored (unless the cache is
// readonly).  A nil cache is allowed and disables caching.
func WithCache(c *rescache.Cache, scope rescache.Scope) MeasureOption {
	return func(mc *measureConfig) { mc.cache = c; mc.cacheScope = scope }
}

// WithProfiling attaches an attribution-profile collector to the run: the
// native-instruction stream is folded into call-stack samples keyed by
// interpreter routine, virtual opcode, and phase, returned as
// Result.Profile.  On pipeline runs the collector also receives cache-miss
// notifications, so misses are attributed to the routine/opcode that
// issued them.
func WithProfiling() MeasureOption {
	return func(c *measureConfig) { c.profiling = true }
}

// cacheKey builds the content address for one measurement of p under the
// current cache scope.
func (mc *measureConfig) cacheKey(p Program, kind, config, sweep string) rescache.Key {
	return rescache.Key{
		Schema:      rescache.SchemaVersion,
		Fingerprint: rescache.Fingerprint(),
		Experiment:  mc.cacheScope.Experiment,
		Scale:       mc.cacheScope.Scale,
		Kind:        kind,
		Program:     p.ID(),
		Variant:     p.Variant,
		Config:      config,
		Sweep:       sweep,
		Profiling:   mc.profiling,
	}
}

// lookup consults the cache for key and, on a hit that valid accepts,
// restores the Result.  Hits and misses are counted in the run's telemetry
// registry so manifests expose the cache's effectiveness.
func (mc *measureConfig) lookup(p Program, key rescache.Key, valid func(*rescache.Entry) bool) (Result, bool) {
	if mc.cache == nil {
		return Result{}, false
	}
	e, ok := mc.cache.Get(key)
	if ok && valid != nil && !valid(e) {
		ok = false
	}
	if !ok {
		mc.reg.Counter("core.cache_misses").Inc()
		return Result{}, false
	}
	mc.reg.Counter("core.cache_hits").Inc()
	span := mc.tracer.StartOn(mc.lane, "cached "+p.ID(), "program", p.ID())
	span.End()
	res := Result{
		Program:       p,
		Stats:         e.Stats,
		Counter:       e.Counter,
		SizeBytes:     e.SizeBytes,
		Pipe:          e.Pipe,
		FrameChecksum: e.FrameChecksum,
		Stdout:        e.Stdout,
		Profile:       e.Profile,
		FromCache:     true,
	}
	if e.Batch != nil {
		res.Batch = *e.Batch
	}
	return res, true
}

// store writes a fresh measurement into the cache.  A failed write is
// counted but never fails the measurement: the result in hand is good, the
// cache just stays cold for this key.
func (mc *measureConfig) store(key rescache.Key, res Result, sweepPts []alphasim.SweepPoint) {
	if mc.cache == nil {
		return
	}
	e := &rescache.Entry{
		SizeBytes:     res.SizeBytes,
		Stdout:        res.Stdout,
		FrameChecksum: res.FrameChecksum,
		Counter:       res.Counter,
		Stats:         res.Stats,
		Pipe:          res.Pipe,
		Sweep:         sweepPts,
		Profile:       res.Profile,
	}
	if res.Batch != (trace.BatchStats{}) {
		b := res.Batch
		e.Batch = &b
	}
	if err := mc.cache.Put(key, e); err != nil {
		mc.reg.Counter("core.cache_put_errors").Inc()
	}
}

// run executes p against a fresh environment with the given sink.
func run(p Program, sink trace.Sink, mc measureConfig) (Result, error) {
	res := Result{Program: p}
	var counter trace.Counter
	var col *profile.Collector
	if mc.profiling {
		col = profile.NewCollector()
		if mo, ok := sink.(interface {
			SetMissObserver(alphasim.MissObserver)
		}); ok {
			mo.SetMissObserver(col)
		}
	}
	// The collector must precede the simulating sink in the fan: it keeps
	// the segment marks of the block it has just attributed, and the
	// pipeline's cache misses for that block, reported by event index,
	// resolve against them.  Combine preserves argument order.
	var fanned trace.Sink
	if col != nil {
		fanned = trace.Combine(&counter, col, sink)
	} else {
		fanned = trace.Combine(&counter, sink)
	}
	// With telemetry enabled the stream is observed on its way to the
	// counting/simulation sinks; disabled, Wrap returns the fan unchanged.
	observed := telemetry.Wrap(fanned, mc.reg, mc.sampleEvery)
	img := atom.NewImage()
	// With no observer, profiler or simulating sink attached, observed is
	// the bare counter and the probe counts instead of emitting.
	probe := atom.NewProbe(img, observed)
	if col != nil {
		col.Bind(probe)
	}
	osys := vfs.New()
	// Compiled-C runs emit their own synthetic kernel path (mipsi.Native);
	// instrumenting the vfs as well would double-charge system time.
	if p.System != SysC {
		osys.Instrument(img, probe)
	}
	ctx := &Ctx{Image: img, Probe: probe, Sink: observed, OS: osys}
	span := mc.tracer.StartOn(mc.lane, "workload "+p.ID(), "program", p.ID())
	err := p.Run(ctx)
	span.End()
	if err != nil {
		mc.reg.Counter("core.errors").Inc()
		return res, fmt.Errorf("%s: %w", p.ID(), err)
	}
	collect := mc.tracer.StartOn(mc.lane, "collect "+p.ID())
	// Drain the probe's buffered tail before reading any sink-side state:
	// the counter, observer, and profile totals are complete only after the
	// final flush.
	probe.FlushEvents()
	res.Batch = probe.BatchStats()
	res.Batch.Add(ctx.batch)
	res.Stats = probe.Stats()
	res.Counter = counter
	res.SizeBytes = ctx.size
	res.Stdout = osys.Stdout.String()
	if ctx.display != nil {
		res.FrameChecksum = ctx.display.Checksum()
	}
	if obs, ok := observed.(*telemetry.Observer); ok {
		obs.Flush()
		res.Samples = obs.Samples()
	}
	if col != nil {
		res.Profile = col.Profile(p.ID())
	}
	collect.End()
	mc.reg.Counter("core.measures").Inc()
	mc.reg.Counter("core.events").Add(counter.Total)
	mc.reg.Histogram("core.events_per_run").Observe(counter.Total)
	mc.reg.Histogram("core.commands_per_run").Observe(res.Commands())
	if b := res.Batch; b.Blocks > 0 {
		mc.reg.Counter("trace.batch.events").Add(b.Events)
		mc.reg.Counter("trace.batch.blocks").Add(b.Blocks)
		mc.reg.Counter("trace.batch.flush_fill").Add(b.FlushFill)
		mc.reg.Counter("trace.batch.flush_final").Add(b.FlushFinal)
		bs := mc.tracer.StartOn(telemetry.BatchLane, "batch "+p.ID(),
			"events", b.Events, "blocks", b.Blocks,
			"flush_fill", b.FlushFill, "flush_final", b.FlushFinal)
		bs.End()
	}
	return res, err
}

// Measure runs p and collects the software metrics only.
func Measure(p Program, opts ...MeasureOption) (Result, error) {
	mc := newMeasureConfig(opts)
	key := mc.cacheKey(p, "measure", "", "")
	if res, ok := mc.lookup(p, key, nil); ok {
		return res, nil
	}
	res, err := run(p, nil, mc)
	if err == nil {
		mc.store(key, res, nil)
	}
	return res, err
}

// MeasureWithPipeline runs p with the trace streaming through a simulated
// processor.
func MeasureWithPipeline(p Program, cfg alphasim.Config, opts ...MeasureOption) (Result, error) {
	mc := newMeasureConfig(opts)
	key := mc.cacheKey(p, "pipeline", rescache.ConfigKey(cfg), "")
	if res, ok := mc.lookup(p, key, func(e *rescache.Entry) bool { return e.Pipe != nil }); ok {
		return res, nil
	}
	pipe := alphasim.New(cfg)
	res, err := run(p, pipe, mc)
	if err != nil {
		return res, err
	}
	st := pipe.Stats()
	res.Pipe = &st
	mc.store(key, res, nil)
	return res, nil
}

// MeasureWithSweep runs p once while probing every geometry of the
// instruction-cache sweep (Figure 4).  On a cache hit the sweep's points
// are restored from the entry, so callers reading sweep.Points() see the
// same counts a live run would have accumulated.
func MeasureWithSweep(p Program, sweep *alphasim.ICacheSweep, opts ...MeasureOption) (Result, error) {
	mc := newMeasureConfig(opts)
	key := mc.cacheKey(p, "sweep", "", sweep.Geometry())
	restore := func(e *rescache.Entry) bool { return sweep.RestorePoints(e.Sweep) }
	if res, ok := mc.lookup(p, key, restore); ok {
		return res, nil
	}
	res, err := run(p, sweep, mc)
	if err == nil {
		mc.store(key, res, sweep.Points())
	}
	return res, err
}
