// Command perfbench runs one interp-lab benchmark workload in this process
// and prints one JSON record of what it measured and checked.  run.py
// starts it once per sample and folds the records into the benchmark's
// result; README.md lists the workloads, metrics and layers.
//
// The lab is driven from outside through its public surface only:
// harness.Run with Options{Parallelism, Manifest, Tracer, Profile}, and the
// run manifest's JSON (per-measurement records and the scheduler ledger).
//
//	perfbench -workload counts [-scale 0.25] [-trace] [-setup-probe]
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"interplab/internal/harness"
	"interplab/internal/profile"
	"interplab/internal/telemetry"
)

// workload is one benchmark workload: a paper experiment run at a fixed
// parallelism, optionally under the attribution profiler.  simulated says
// whether the experiment drives the alphasim machine model, which the
// layer-coverage guard checks.
type workload struct {
	experiment  string
	parallelism int
	simulated   bool
	profiled    bool
}

var workloads = map[string]workload{
	"counts":   {experiment: "fig1", parallelism: 1},
	"sweep":    {experiment: "fig4", parallelism: 2, simulated: true},
	"profiled": {experiment: "table2", parallelism: 1, simulated: true, profiled: true},
}

// Paths from the root of the checkout, where run.py starts this program.
const (
	pinsPath = "perfbench/pins.json"      // pinned event counts and output digests
	docPath  = "docs/experiments-run.txt" // the committed scale-1 experiment output
)

// blockCap is the trace layer's event capacity per block (trace.BlockCap),
// the denominator of trace.fill.  It is a copy, like the manifest fields
// decoded below, so the benchmark reads the lab's records without
// compiling against the emission layer it measures.
const blockCap = 4096

// pin is the pinned output of one workload at one scale: the native-
// instruction event count fixed by guest semantics, and digests of the
// rendered text and (profiled only) the profile report.
type pin struct {
	Events       uint64 `json:"events"`
	TextSHA256   string `json:"text_sha256"`
	ReportSHA256 string `json:"report_sha256,omitempty"`
}

// record is what one process reports to run.py.
type record struct {
	Workload    string             `json:"workload"`
	Scale       float64            `json:"scale"`
	Parallelism int                `json:"parallelism"`
	SetupS      float64            `json:"setup_s"`
	Events      uint64             `json:"events"`
	AllocMB     float64            `json:"alloc_mb"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Mismatches  []string           `json:"mismatches"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: counts, sweep or profiled")
	scale := flag.Float64("scale", 1, "workload scale")
	traced := flag.Bool("trace", false, "also run once traced and report per-layer metrics")
	probe := flag.Bool("setup-probe", false, "exit at the first measurement job and report setup_s only")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	spawn, err := spawnTime()
	if err != nil {
		fatalf("%v", err)
	}
	if *probe {
		s, err := setupProbe(w, *scale, spawn)
		if err != nil {
			fatalf("setup probe: %v", err)
		}
		emit(record{Workload: *name, Scale: *scale, Parallelism: w.parallelism, SetupS: s})
		return
	}
	p, err := loadPin(*name, *scale)
	if err != nil {
		fatalf("%v", err)
	}
	var doc string
	if *scale == 1 {
		b, err := os.ReadFile(docPath)
		if err != nil {
			fatalf("read committed output: %v", err)
		}
		doc = string(b)
	}
	chk := checker{w: w, pin: p, doc: doc}

	rec := record{Workload: *name, Scale: *scale, Parallelism: w.parallelism}
	res, err := runOnce(w, *scale, nil)
	if err != nil {
		fatalf("%s: %v", w.experiment, err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.SetupS = res.startRun.Sub(spawn).Seconds() + res.firstMeasureUS/1e6
	rec.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	rec.Events = res.events
	chk.check(res)
	if *traced {
		rec.Layers = tracedRun(w, *scale, &chk)
	}
	rec.Attempted, rec.Failed, rec.Mismatches = chk.attempted, chk.failed, chk.mismatches
	emit(rec)
}

// spawnTime is when run.py started this process, passed in
// PERFBENCH_SPAWN_NS as Unix nanoseconds; setup_s counts from it, so
// process start, runtime and package initialisation are part of set-up.
func spawnTime() (time.Time, error) {
	v := os.Getenv("PERFBENCH_SPAWN_NS")
	if v == "" {
		return time.Now(), nil
	}
	ns, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("PERFBENCH_SPAWN_NS: %w", err)
	}
	return time.Unix(0, ns), nil
}

func loadPin(name string, scale float64) (pin, error) {
	b, err := os.ReadFile(pinsPath)
	if err != nil {
		return pin{}, fmt.Errorf("read pins: %w", err)
	}
	var pins map[string]map[string]pin
	if err := json.Unmarshal(b, &pins); err != nil {
		return pin{}, fmt.Errorf("parse %s: %w", pinsPath, err)
	}
	key := strconv.FormatFloat(scale, 'g', -1, 64)
	p, ok := pins[name][key]
	if !ok {
		return pin{}, fmt.Errorf("%s pins no output for workload %s at scale %s", pinsPath, name, key)
	}
	return p, nil
}

// result is one harness.Run of a workload.
type result struct {
	startRun       time.Time
	wall           time.Duration
	text           string // what the experiment rendered
	report         string // profiled only: the profile report interp-lab profile prints
	man            manifestDoc
	events         uint64
	firstMeasureUS float64 // first measurement job's start, from the ledger epoch
}

// runOnce runs the workload's experiment once, with tr recording spans
// when non-nil.
func runOnce(w workload, scale float64, tr *telemetry.Tracer) (*result, error) {
	var out bytes.Buffer
	man := telemetry.NewManifest(scale)
	opt := harness.Options{Scale: scale, Out: &out, Parallelism: w.parallelism, Manifest: man, Tracer: tr}
	var set *profile.Set
	if w.profiled {
		set = profile.NewSet()
		opt.Profile = set
	}
	res := &result{startRun: time.Now()}
	err := harness.Run(w.experiment, opt)
	if err != nil {
		return nil, err
	}
	if set != nil {
		// The report `interp-lab profile` prints: per program, the top ten
		// routines by instructions and the fetch/decode-vs-execute split.
		var rep bytes.Buffer
		for k, p := range set.Profiles() {
			if k > 0 {
				rep.WriteString("\n")
			}
			if err := p.WriteTop(&rep, 10, 0); err != nil {
				return nil, fmt.Errorf("profile top: %w", err)
			}
			rep.WriteString("\n")
			if err := p.WritePhaseSplit(&rep); err != nil {
				return nil, fmt.Errorf("profile phase split: %w", err)
			}
		}
		res.report = rep.String()
	}
	res.wall = time.Since(res.startRun)
	res.text = out.String()

	if res.man, err = decodeManifest(man); err != nil {
		return nil, err
	}
	for _, m := range res.man.Experiments[0].Measurements {
		res.events += m.Events
	}
	if res.firstMeasureUS, err = firstMeasureUS(res.man); err != nil {
		return nil, err
	}
	return res, nil
}

// decodeManifest reads a one-experiment manifest back through its JSON.
func decodeManifest(m *telemetry.Manifest) (manifestDoc, error) {
	var js bytes.Buffer
	var doc manifestDoc
	if err := m.Write(&js); err != nil {
		return doc, fmt.Errorf("write manifest: %w", err)
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		return doc, fmt.Errorf("decode manifest: %w", err)
	}
	if len(doc.Experiments) != 1 {
		return doc, fmt.Errorf("manifest holds %d experiments, want 1", len(doc.Experiments))
	}
	return doc, nil
}

// firstMeasureUS returns when the first measurement job started, in
// microseconds from the scheduler ledger's epoch (the start of the batch).
func firstMeasureUS(doc manifestDoc) (float64, error) {
	first := -1.0
	for _, s := range doc.Experiments[0].Sched {
		for _, j := range s.Ledger {
			if j.Kind != "setup" && j.Kind != "render" && (first < 0 || j.StartUS < first) {
				first = j.StartUS
			}
		}
	}
	if first < 0 {
		return 0, errors.New("scheduler ledger records no measurement job")
	}
	return first, nil
}

// manifestDoc is the part of the run manifest the benchmark reads.  It is
// decoded from the manifest's JSON, the lab's versioned public record.
type manifestDoc struct {
	Experiments []struct {
		ID           string `json:"id"`
		Text         string `json:"text"`
		Error        string `json:"error"`
		Measurements []struct {
			Program string `json:"program"`
			System  string `json:"system"`
			Kind    string `json:"kind"`
			Events  uint64 `json:"events"`
			Stats   *struct {
				Instructions uint64 `json:"instructions"`
			} `json:"stats"`
			Pipe *struct {
				Instructions uint64 `json:"instructions"`
			} `json:"pipe"`
			Batch *struct {
				Events    uint64 `json:"events"`
				Blocks    uint64 `json:"blocks"`
				FlushFill uint64 `json:"flush_fill"`
				FlushAttr uint64 `json:"flush_attr"`
				FlushEnd  uint64 `json:"flush_final"`
			} `json:"batch"`
			Sweep []struct {
				Instructions uint64 `json:"instructions"`
			} `json:"sweep"`
		} `json:"measurements"`
		Profiles []struct {
			Program      string           `json:"program"`
			Instructions int64            `json:"instructions"`
			PhaseTotals  map[string]int64 `json:"phase_totals"`
		} `json:"profiles"`
		Sched []struct {
			WorkersEffective int     `json:"workers_effective"`
			TotalBusyUS      float64 `json:"total_busy_us"`
			SerialFraction   float64 `json:"serial_fraction"`
			DilationX        float64 `json:"dilation_x"`
			Workers          []struct {
				Utilization float64 `json:"utilization"`
			} `json:"workers"`
			Ledger []struct {
				Kind    string  `json:"kind"`
				StartUS float64 `json:"start_us"`
				Outcome string  `json:"outcome"`
			} `json:"ledger"`
		} `json:"sched"`
	} `json:"experiments"`
}

// checker counts measurements attempted and failed, and collects every
// output mismatch, across the runs of one process.
type checker struct {
	w          workload
	pin        pin
	doc        string
	attempted  int
	failed     int
	mismatches []string
}

func (c *checker) mismatch(format string, args ...any) {
	c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	c.failed++
}

// check verifies one run: the rendered text against the committed scale-1
// output (or its pinned digest at other scales), the event total against
// its pin, and the lab invariants each measurement record exposes.
func (c *checker) check(r *result) {
	e := r.man.Experiments[0]
	c.attempted += len(e.Measurements)
	if e.Error != "" {
		c.mismatch("experiment error: %s", e.Error)
	}
	if c.doc != "" {
		if !sectionOf(c.doc, r.text) {
			c.mismatch("rendered %s differs from its section of the committed output", e.ID)
		}
	} else if got := digest(r.text); got != c.pin.TextSHA256 {
		c.mismatch("rendered %s digest %s, pinned %s", e.ID, got, c.pin.TextSHA256)
	}
	if c.w.profiled {
		if got := digest(r.report); got != c.pin.ReportSHA256 {
			c.mismatch("profile report digest %s, pinned %s", got, c.pin.ReportSHA256)
		}
	}
	if r.events != c.pin.Events {
		c.mismatch("events %d, pinned %d", r.events, c.pin.Events)
	}
	for _, s := range e.Sched {
		for _, j := range s.Ledger {
			if j.Outcome != "ok" {
				c.mismatch("scheduler job %s ended %q", j.Kind, j.Outcome)
			}
		}
	}
	for _, m := range e.Measurements {
		switch {
		case m.Stats == nil:
			c.mismatch("%s: no probe stats", m.Program)
		case m.System != "C" && m.Stats.Instructions != m.Events:
			// Compiled-C runs emit their stream without the probe, so
			// only interpreted runs carry a probe total.
			c.mismatch("%s: counter total %d != probe total %d", m.Program, m.Events, m.Stats.Instructions)
		case m.Pipe != nil && m.Pipe.Instructions != m.Events:
			c.mismatch("%s: pipeline retired %d instructions, counted %d", m.Program, m.Pipe.Instructions, m.Events)
		case m.Batch != nil && m.Batch.Events != m.Events:
			c.mismatch("%s: emitted %d events, counted %d", m.Program, m.Batch.Events, m.Events)
		case m.Batch != nil && m.Batch.Blocks != m.Batch.FlushFill+m.Batch.FlushAttr+m.Batch.FlushEnd:
			c.mismatch("%s: %d blocks but %d flushes", m.Program, m.Batch.Blocks,
				m.Batch.FlushFill+m.Batch.FlushAttr+m.Batch.FlushEnd)
		}
		for _, pt := range m.Sweep {
			if pt.Instructions != m.Events {
				c.mismatch("%s: sweep point saw %d instructions, counted %d", m.Program, pt.Instructions, m.Events)
				break
			}
		}
	}
	if c.w.profiled && len(e.Profiles) != len(e.Measurements) {
		c.mismatch("%d profiles for %d measurements", len(e.Profiles), len(e.Measurements))
	}
	for _, p := range e.Profiles {
		var sum int64
		for _, v := range p.PhaseTotals {
			sum += v
		}
		if sum != p.Instructions {
			c.mismatch("%s: profile phases sum to %d of %d instructions", p.Program, sum, p.Instructions)
		}
	}
}

// sectionOf reports whether text is a whole section of doc: it starts a
// line and is followed by a line break or the end of doc.
func sectionOf(doc, text string) bool {
	if text == "" {
		return false
	}
	for i := 0; ; {
		k := strings.Index(doc[i:], text)
		if k < 0 {
			return false
		}
		at := i + k
		end := at + len(text)
		if (at == 0 || doc[at-1] == '\n') && (end == len(doc) || doc[end] == '\n') {
			return true
		}
		i = at + 1
	}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// tracedRun runs the workload a second time with the harness's span tracer
// and a runtime/pprof CPU profile, and returns the per-layer metrics: self
// CPU time folded by package into layers, the emission and scheduler
// counts from the manifest, and the tracing overhead.  The overhead is
// measured against a third, untraced run, because the first run of a
// process is slower than the ones after it.
func tracedRun(w workload, scale float64, chk *checker) map[string]float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fatalf("start CPU profile: %v", err)
	}
	tr := telemetry.NewTracer()
	res, err := runOnce(w, scale, tr)
	pprof.StopCPUProfile()
	if err != nil {
		fatalf("traced %s: %v", w.experiment, err)
	}
	runtime.ReadMemStats(&after)
	chk.check(res)
	untraced, err := runOnce(w, scale, nil)
	if err != nil {
		fatalf("%s: %v", w.experiment, err)
	}
	chk.check(untraced)

	self, err := selfTimeByLayer(prof.Bytes())
	if err != nil {
		fatalf("CPU profile: %v", err)
	}
	m := map[string]float64{}
	var sampled float64
	for _, l := range layers {
		m[l+".self_s"] = self[l]
		sampled += self[l]
	}
	m["bench.sampled_cpu_s"] = sampled
	ev := float64(res.events)
	for _, l := range []string{"atom", "trace", "alphasim"} {
		m[l+".ns_per_event"] = self[l] * 1e9 / ev
	}

	e := res.man.Experiments[0]
	var blocks, batched, flushAttr uint64
	for _, mm := range e.Measurements {
		if mm.Batch != nil {
			blocks += mm.Batch.Blocks
			batched += mm.Batch.Events
			flushAttr += mm.Batch.FlushAttr
		}
	}
	m["trace.blocks"] = float64(blocks)
	m["trace.flush_attr"] = float64(flushAttr)
	m["trace.fill"] = 0
	if blocks > 0 {
		m["trace.fill"] = float64(batched) / (float64(blocks) * blockCap)
	}

	var jobs, workers int
	var busyUS, util, serial, dilation float64
	for _, s := range e.Sched {
		for _, j := range s.Ledger {
			if j.Kind != "setup" && j.Kind != "render" {
				jobs++
			}
		}
		busyUS += s.TotalBusyUS
		for _, wk := range s.Workers {
			util += wk.Utilization
		}
		workers += len(s.Workers)
		serial, dilation = s.SerialFraction, s.DilationX
		if s.WorkersEffective != w.parallelism {
			chk.mismatch("coverage: scheduler ran %d workers, want %d", s.WorkersEffective, w.parallelism)
		}
	}
	m["harness.jobs"] = float64(jobs)
	m["harness.busy_s"] = busyUS / 1e6
	m["harness.worker_util"] = 0
	if workers > 0 {
		m["harness.worker_util"] = util / float64(workers)
	}
	m["harness.serial_fraction"] = serial
	m["harness.dilation_x"] = dilation
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["bench.trace_spans"] = float64(len(tr.Events()))
	m["bench.trace_overhead_pct"] = 100 * (res.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds()

	// Layer-coverage guard: zero versus non-zero self time only, so an
	// optimisation that shrinks a layer cannot trip it.
	if (self["alphasim"] > 0) != w.simulated {
		chk.mismatch("coverage: alphasim self time %.3fs, want non-zero=%v", self["alphasim"], w.simulated)
	}
	if (self["profile"] > 0) != w.profiled {
		chk.mismatch("coverage: profile self time %.3fs, want non-zero=%v", self["profile"], w.profiled)
	}
	return m
}

// layers are the modules self time is folded into; "other" collects every
// package no other layer names.
var layers = []string{
	"atom", "trace", "alphasim", "profile", "harness", "runtime",
	"mipsi", "jvm", "perl", "tcl", "mips", "minicc", "other",
}

// layerOfPkg maps a top-level interplab/internal package to its layer.
var layerOfPkg = map[string]string{
	"atom": "atom", "trace": "trace", "alphasim": "alphasim", "profile": "profile",
	"harness": "harness", "labstats": "harness", "core": "harness",
	"mipsi": "mipsi", "jvm": "jvm", "perl": "perl", "tcl": "tcl", "mips": "mips", "minicc": "minicc",
}

// layerOf maps a Go function's full name to its layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "interplab/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		if l, ok := layerOfPkg[top]; ok {
			return l
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/") {
		return "runtime"
	}
	return "other"
}

func emit(r record) {
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if r.Mismatches == nil {
		r.Mismatches = []string{}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encode record: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setupProbe starts the workload's experiment and returns setup_s as soon
// as the first measurement job is claimed, without waiting for the
// measurements.  The probe runs with at least two workers, because the
// parallel scheduler marks each claim with a trace instant when it
// happens; set-up and planning do not depend on the worker count.  If the
// run ends without such an instant, the ledger in its manifest is used.
func setupProbe(w workload, scale float64, spawn time.Time) (float64, error) {
	opt := harness.Options{Scale: scale, Out: io.Discard, Parallelism: max(2, w.parallelism),
		Manifest: telemetry.NewManifest(scale)}
	if w.profiled {
		opt.Profile = profile.NewSet()
	}
	epoch := time.Now()
	opt.Tracer = telemetry.NewTracer()
	done := make(chan error, 1)
	go func() { done <- harness.Run(w.experiment, opt) }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			if err != nil {
				return 0, err
			}
			doc, err := decodeManifest(opt.Manifest)
			if err != nil {
				return 0, err
			}
			us, err := firstMeasureUS(doc)
			return epoch.Sub(spawn).Seconds() + us/1e6, err
		case <-tick.C:
			for _, ev := range opt.Tracer.Events() {
				if ev.Ph == "i" && strings.HasPrefix(ev.Name, "claim ") {
					return epoch.Sub(spawn).Seconds() + ev.Ts/1e6, nil
				}
			}
		}
	}
}
