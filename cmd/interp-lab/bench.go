package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/harness"
	"interplab/internal/labstats"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/vfs"
	"interplab/internal/workloads"
)

// benchResult is one arm of the telemetry overhead measurement.
type benchResult struct {
	Events       uint64  `json:"events"`
	BestSeconds  float64 `json:"best_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// WinningRound is the 1-based interleaved round that produced
	// BestSeconds — a diagnostic for host noise: arms that keep winning in
	// late rounds are being warmed, arms that win round 1 and never again
	// are being disturbed.  Zero for arms not measured in rounds.
	WinningRound int `json:"winning_round,omitempty"`
}

// benchReport is the BENCH_telemetry.json document: the event throughput
// of one measurement with telemetry off (the probe counts, emitting
// nothing), with every event emitted through the block path into the same
// counter (Emit), with the telemetry observer on that path, and with the
// attribution-profile sink attached, seeding the repo's performance
// trajectory.  The overhead percentages are the observer's and the
// profiler's cost over the emission they ride on, so both are taken
// against Emit.
type benchReport struct {
	Benchmark          string      `json:"benchmark"`
	Workload           string      `json:"workload"`
	Runs               int         `json:"runs"`
	Off                benchResult `json:"telemetry_off"`
	Emit               benchResult `json:"emit"`
	On                 benchResult `json:"telemetry_on"`
	Profiling          benchResult `json:"profiling_on"`
	OverheadPct        float64     `json:"overhead_pct"`
	ProfileOverheadPct float64     `json:"profile_overhead_pct"`

	// Batch is the emit arm's block accounting.
	Batch trace.BatchStats `json:"batch"`

	// Scheduler arm: the same harness experiment measured serially and on
	// the parallel scheduler — the output is byte-identical, so this is
	// pure wall-time.  Parallelism is the worker count the parallel arm
	// actually ran at; SchedParallelismRequested is what -sched-parallelism
	// asked for (default GOMAXPROCS) before the >= 2 clamp, and
	// SchedParallelismEffective is what the batch used after capping at
	// its job count.
	SchedExperiment           string      `json:"sched_experiment"`
	Parallelism               int         `json:"parallelism"`
	SchedParallelismRequested int         `json:"sched_parallelism_requested"`
	SchedParallelismEffective int         `json:"sched_parallelism_effective"`
	SchedSerial               benchResult `json:"sched_serial"`
	SchedParallel             benchResult `json:"sched_parallel"`
	SchedSpeedupX             float64     `json:"sched_speedup_x"`

	// SchedLedger is the speedup ledger of the parallel arm's best run —
	// why SchedSpeedupX is what it is (per-worker utilization, serial
	// fraction, imbalance, Amdahl prediction).  SchedLedgerP2 is the same
	// ledger at exactly two workers, a fixed point comparable across hosts
	// with different core counts.
	SchedLedger   *schedLedgerSummary `json:"sched_ledger"`
	SchedLedgerP2 *schedLedgerSummary `json:"sched_ledger_p2"`

	// Measurement-cache arm: all nine experiments, first against an empty
	// cache (cold: every job measured and stored), then again (warm: every
	// job restored from disk).  The rendered text is verified byte-identical
	// between the arms; warm Events is 0 because no native-instruction
	// stream is replayed on a hit.
	CacheExperiments int         `json:"cache_experiments"`
	CacheCold        benchResult `json:"cache_cold"`
	CacheWarm        benchResult `json:"cache_warm"`
	CacheSpeedupX    float64     `json:"cache_speedup_x"`
}

// cmdBenchTelemetry wall-times a small harness measurement with telemetry
// disabled and enabled and writes the throughput comparison to out (the
// optional positional argument, default BENCH_telemetry.json).  With
// -cache dir the measurement-cache arm runs there (the dir is cleared to
// guarantee a cold start); otherwise it uses a throwaway temp dir.
// -sched-parallelism sets the parallel scheduler arm's worker count.
func cmdBenchTelemetry(args []string, scale float64, cacheDir string) {
	fs := flag.NewFlagSet("bench-telemetry", flag.ExitOnError)
	schedPar := fs.Int("sched-parallelism", runtime.GOMAXPROCS(0),
		"workers for the parallel scheduler arm and its speedup ledger (default GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: interp-lab bench-telemetry [-sched-parallelism n] [file]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	out := "BENCH_telemetry.json"
	if fs.NArg() > 0 {
		out = fs.Arg(0)
	}
	if *schedPar < 1 {
		usageFatalf("-sched-parallelism must be >= 1 (got %d)", *schedPar)
	}
	if scale <= 0 {
		fatalf("-scale must be > 0 (got %g)", scale)
	}
	blocks := int(30 * scale)
	if blocks < 2 {
		blocks = 2
	}
	mk := func() core.Program { return workloads.DESMIPSI(blocks) }
	const runs = 5

	// All four overhead arms run in interleaved rounds (off, emit, on,
	// profiling, repeated), so a host noise episode is spread across every
	// arm instead of sinking whichever one it lands on.
	arms, results := benchArms(runs, []func() (core.Result, error){
		func() (core.Result, error) { return core.Measure(mk()) },
		func() (core.Result, error) { return measureEmitting(mk()) },
		func() (core.Result, error) { return core.Measure(mk(), core.WithTelemetry(telemetry.NewRegistry())) },
		func() (core.Result, error) { return core.Measure(mk(), core.WithProfiling()) },
	})
	off, emit, on, prof := arms[0], arms[1], arms[2], arms[3]
	offRes, emitRes := results[0], results[1]

	rep := benchReport{
		Benchmark: "telemetry-overhead",
		Workload:  mk().ID(),
		Runs:      runs,
		Off:       off,
		Emit:      emit,
		On:        on,
		Profiling: prof,
		Batch:     emitRes.Batch,
	}
	if emit.EventsPerSec > 0 {
		rep.OverheadPct = 100 * (emit.EventsPerSec - on.EventsPerSec) / emit.EventsPerSec
		rep.ProfileOverheadPct = 100 * (emit.EventsPerSec - prof.EventsPerSec) / emit.EventsPerSec
	}

	// Counting and emitting must agree on every measured number — a
	// mismatch means the counting probe diverged from the stream it stands
	// for, which is fatal here exactly as it is in the core differential
	// test.
	if offRes.Counter != emitRes.Counter || offRes.Stats.Instructions != emitRes.Stats.Instructions {
		fatalf("bench: counting and emitting runs measured different streams")
	}

	rep.SchedExperiment = "table1"
	rep.SchedParallelismRequested = *schedPar
	// At least two workers, so the parallel arm always measures the
	// concurrent scheduler path (on a single-CPU host the honest result is
	// ~1.0x; with more cores the speedup shows up here).
	rep.Parallelism = *schedPar
	if rep.Parallelism < 2 {
		rep.Parallelism = 2
	}
	// Serial and parallel run in interleaved best-of rounds (serial,
	// parallel, serial, parallel, ...) so a host noise episode degrades
	// both arms instead of sinking whichever one it lands on — the speedup
	// ratio stays honest even on a noisy runner.
	schedRes, schedStats := schedArms(runs, rep.SchedExperiment, scale, []int{1, rep.Parallelism})
	rep.SchedSerial, rep.SchedParallel = schedRes[0], schedRes[1]
	parSched := schedStats[1]
	if rep.SchedParallel.BestSeconds > 0 {
		rep.SchedSpeedupX = rep.SchedSerial.BestSeconds / rep.SchedParallel.BestSeconds
	}
	rep.SchedLedger = summarizeLedger(parSched)
	if parSched != nil {
		rep.SchedParallelismEffective = parSched.WorkersEffective
	}
	if rep.Parallelism == 2 {
		rep.SchedLedgerP2 = rep.SchedLedger
	} else {
		// One run suffices: the fixed two-worker point is ledger data, not
		// a best-of timing.
		_, p2 := schedArms(1, rep.SchedExperiment, scale, []int{2})
		rep.SchedLedgerP2 = summarizeLedger(p2[0])
	}

	rep.CacheExperiments = len(harness.Experiments)
	rep.CacheCold, rep.CacheWarm = cacheArms(scale, cacheDir)
	if rep.CacheWarm.BestSeconds > 0 {
		rep.CacheSpeedupX = rep.CacheCold.BestSeconds / rep.CacheWarm.BestSeconds
	}
	f, err := os.Create(out)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatalf("write %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		fatalf("close %s: %v", out, err)
	}
	fmt.Printf("telemetry off: %.0f events/s, emit: %.0f events/s (%d blocks, %.0f events/block) -> %s\n",
		off.EventsPerSec, emit.EventsPerSec, rep.Batch.Blocks, rep.Batch.EventsPerBlock(), out)
	fmt.Printf("telemetry on: %.0f events/s (overhead %.2f%% over emit), profiling: %.0f events/s (overhead %.2f%% over emit)\n",
		on.EventsPerSec, rep.OverheadPct, prof.EventsPerSec, rep.ProfileOverheadPct)
	fmt.Printf("scheduler %s: serial %.2fs (round %d), parallel(%d) %.2fs (round %d) -> %.2fx\n",
		rep.SchedExperiment, rep.SchedSerial.BestSeconds, rep.SchedSerial.WinningRound,
		rep.Parallelism, rep.SchedParallel.BestSeconds, rep.SchedParallel.WinningRound,
		rep.SchedSpeedupX)
	if l := rep.SchedLedger; l != nil {
		fmt.Printf("scheduler ledger (%d workers, %s, %d cpus): serial fraction %.3f, imbalance %.1f%%, dilation %.2fx, batch speedup %.2fx vs Amdahl %.2fx\n",
			l.EffectiveWorkers, l.ClaimPolicy, l.CPUs, l.SerialFraction,
			l.ImbalancePct, l.DilationX, l.MeasuredSpeedupX, l.PredictedSpeedupX)
		for _, ph := range l.Phases {
			fmt.Printf("  phase %-8s %3d jobs, wall %8.0fus, busy %8.0fus\n",
				ph.Phase, ph.Jobs, ph.WallUS, ph.BusyUS)
		}
	}
	fmt.Printf("cache (%d experiments): cold %.2fs, warm %.2fs (%.1fx)\n",
		rep.CacheExperiments, rep.CacheCold.BestSeconds, rep.CacheWarm.BestSeconds, rep.CacheSpeedupX)
}

// cacheArms times a cold run of every experiment against an empty
// measurement cache, then a warm run against the entries the cold run
// stored.  Warm is best-of-2: the second warm run confirms hits stay hits.
// The two arms' rendered text is compared byte for byte — a mismatch means
// the cache broke determinism, which is fatal here exactly as it would be
// in the determinism golden test.
func cacheArms(scale float64, dir string) (cold, warm benchResult) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "interp-lab-bench-cache-")
		if err != nil {
			fatalf("bench cache: %v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cache, err := rescache.Open(dir, false)
	if err != nil {
		fatalf("bench cache: %v", err)
	}
	// A restored CI cache or prior bench run must not warm the cold arm.
	if err := cache.Clear(); err != nil {
		fatalf("bench cache: %v", err)
	}
	coldText, coldRes := cacheRun(cache, scale)
	warmText, warmRes := cacheRun(cache, scale)
	warmText2, warmRes2 := cacheRun(cache, scale)
	if warmRes2.BestSeconds < warmRes.BestSeconds {
		warmRes = warmRes2
	}
	if warmText != coldText || warmText2 != coldText {
		fatalf("bench cache: warm output differs from cold output (cache broke determinism)")
	}
	return coldRes, warmRes
}

// cacheRun renders every experiment once through the given cache and
// returns the text plus wall time.  Events counts the native instructions
// actually measured: a fully warm run reports 0.
func cacheRun(cache *rescache.Cache, scale float64) (string, benchResult) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	opt := harness.Options{Scale: scale, Out: &buf, Cache: cache, Telemetry: reg}
	start := time.Now()
	for k, id := range harness.Experiments {
		if k > 0 {
			buf.WriteByte('\n')
		}
		if err := harness.Run(id, opt); err != nil {
			fatalf("bench cache %s: %v", id, err)
		}
	}
	el := time.Since(start)
	r := benchResult{Events: reg.Counter("core.events").Value(), BestSeconds: el.Seconds()}
	if el > 0 {
		r.EventsPerSec = float64(r.Events) / el.Seconds()
	}
	return buf.String(), r
}

// schedLedgerSummary condenses one batch's speedup ledger for
// BENCH_telemetry.json: enough to explain the headline speedup — who was
// busy, what share of the work ran serially, and what Amdahl's law says
// that should have cost — without the full per-job ledger.
type schedLedgerSummary struct {
	Parallelism       int       `json:"parallelism"`
	EffectiveWorkers  int       `json:"effective_workers"`
	WorkerUtilization []float64 `json:"worker_utilization"`
	SerialFraction    float64   `json:"serial_fraction"`
	ImbalancePct      float64   `json:"imbalance_pct"`
	MeasuredSpeedupX  float64   `json:"measured_speedup_x"`
	PredictedSpeedupX float64   `json:"predicted_speedup_x"`
	ContentionWaitUS  float64   `json:"contention_wait_us"`
	// ClaimPolicy, CPUs/GOMAXPROCS, and DilationX qualify the headline:
	// how claims were ordered, how much hardware parallelism the arm
	// really had, and how far concurrent execution stretched jobs past
	// their single-run estimates (≈1 on idle multicore; ≫1 when the
	// workers timeshare).
	ClaimPolicy string  `json:"claim_policy,omitempty"`
	CPUs        int     `json:"cpus,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	DilationX   float64 `json:"dilation_x,omitempty"`
	// Phases decomposes the batch wall by scheduling stage (setup,
	// measure, render) — a speedup regression localizes to the stage that
	// slowed.
	Phases []labstats.PhaseStats `json:"phases,omitempty"`
}

// summarizeLedger condenses a batch's speedup ledger; nil in, nil out.
func summarizeLedger(s *labstats.SchedStats) *schedLedgerSummary {
	if s == nil {
		return nil
	}
	out := &schedLedgerSummary{
		Parallelism:       s.WorkersRequested,
		EffectiveWorkers:  s.WorkersEffective,
		SerialFraction:    s.SerialFraction,
		ImbalancePct:      s.ImbalancePct,
		MeasuredSpeedupX:  s.MeasuredSpeedupX,
		PredictedSpeedupX: s.PredictedSpeedupX,
		ContentionWaitUS:  s.ContentionWaitUS,
		ClaimPolicy:       s.ClaimPolicy,
		CPUs:              s.CPUs,
		GOMAXPROCS:        s.GOMAXPROCS,
		DilationX:         s.DilationX,
		Phases:            s.Phases,
	}
	for _, w := range s.Workers {
		out.WorkerUtilization = append(out.WorkerUtilization, w.Utilization)
	}
	return out
}

// schedArms measures best-of-n wall time for one harness experiment at
// each of the given parallelisms, in interleaved rounds (every arm once
// per round).  Events is the total native-instruction stream length across
// the experiment's measurements, taken from each run's registry; the
// returned SchedStats are each arm's best-timed run's speedup ledger, and
// each result records which round won.
func schedArms(n int, id string, scale float64, parallelisms []int) ([]benchResult, []*labstats.SchedStats) {
	best := make([]time.Duration, len(parallelisms))
	rounds := make([]int, len(parallelisms))
	events := make([]uint64, len(parallelisms))
	scheds := make([]*labstats.SchedStats, len(parallelisms))
	for i := 0; i < n; i++ {
		for a, p := range parallelisms {
			reg := telemetry.NewRegistry()
			man := telemetry.NewManifest(scale)
			opt := harness.Options{Scale: scale, Out: io.Discard, Parallelism: p, Telemetry: reg, Manifest: man}
			start := time.Now()
			if err := harness.Run(id, opt); err != nil {
				fatalf("bench %s: %v", id, err)
			}
			el := time.Since(start)
			events[a] = reg.Counter("core.events").Value()
			if best[a] == 0 || el < best[a] {
				best[a] = el
				rounds[a] = i + 1
				if len(man.Runs) > 0 && len(man.Runs[0].Sched) > 0 {
					scheds[a] = man.Runs[0].Sched[0]
				}
			}
		}
	}
	out := make([]benchResult, len(parallelisms))
	for a := range parallelisms {
		out[a] = benchResult{Events: events[a], BestSeconds: best[a].Seconds(), WinningRound: rounds[a]}
		if best[a] > 0 {
			out[a].EventsPerSec = float64(events[a]) / best[a].Seconds()
		}
	}
	return out, scheds
}

// measureEmitting runs p as core.Measure does, but with its counter behind
// a one-sink trace.Multi: the probe sees no bare counter, so it emits every
// event through the block path instead of counting.  That emission is what
// the telemetry and profiling arms ride on.
func measureEmitting(p core.Program) (core.Result, error) {
	var c trace.Counter
	sink := trace.Multi{&c}
	img := atom.NewImage()
	probe := atom.NewProbe(img, sink)
	osys := vfs.New()
	if p.System != core.SysC {
		osys.Instrument(img, probe)
	}
	if err := p.Run(&core.Ctx{Image: img, Probe: probe, Sink: sink, OS: osys}); err != nil {
		return core.Result{}, fmt.Errorf("%s: %w", p.ID(), err)
	}
	probe.FlushEvents()
	return core.Result{Program: p, Stats: probe.Stats(), Counter: c, Batch: probe.BatchStats()}, nil
}

// benchArms measures several configurations of the same workload in n
// interleaved rounds — arm 0, 1, 2, ..., then all arms again — keeping
// each arm's best wall time.  It returns the per-arm timings and each
// arm's last Result (runs are deterministic, so any run's Result stands
// for all of that arm's).
func benchArms(n int, arms []func() (core.Result, error)) ([]benchResult, []core.Result) {
	best := make([]time.Duration, len(arms))
	rounds := make([]int, len(arms))
	last := make([]core.Result, len(arms))
	for i := 0; i < n; i++ {
		for a, measure := range arms {
			start := time.Now()
			res, err := measure()
			el := time.Since(start)
			if err != nil {
				fatalf("bench workload: %v", err)
			}
			last[a] = res
			if best[a] == 0 || el < best[a] {
				best[a] = el
				rounds[a] = i + 1
			}
		}
	}
	out := make([]benchResult, len(arms))
	for a := range arms {
		out[a] = benchResult{Events: last[a].Counter.Total, BestSeconds: best[a].Seconds(), WinningRound: rounds[a]}
		if best[a] > 0 {
			out[a].EventsPerSec = float64(out[a].Events) / best[a].Seconds()
		}
	}
	return out, last
}
