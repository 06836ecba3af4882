package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"interplab/internal/core"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/event_stream.golden from the current block path")

// streamScale keeps the suite small: the golden pins every event, so any
// scale exercises every routine, branch site and flush boundary kind.
const streamScale = 0.05

// streamHash folds every event of a stream — PC, Addr, Kind and Flags, in
// order — into a 64-bit FNV-1a hash.  It takes blocks natively, so the
// probe's block path delivers to it exactly as it delivers to the
// simulators.
type streamHash struct{ h uint64 }

func newStreamHash() *streamHash { return &streamHash{h: 14695981039346656037} }

func (s *streamHash) add(pc, addr uint32, k trace.Kind, f trace.Flags) {
	const prime = 1099511628211
	s.h = (s.h ^ (uint64(pc)<<32 | uint64(addr))) * prime
	s.h = (s.h ^ (uint64(k)<<8 | uint64(f))) * prime
}

func (s *streamHash) Emit(e trace.Event) { s.add(e.PC, e.Addr, e.Kind, e.Flags) }

func (s *streamHash) EmitBlock(b *trace.Block) {
	for i := 0; i < b.N; i++ {
		s.add(b.PC[i], b.Addr[i], b.Kind[i], b.Flags[i])
	}
}

// TestEventStreamGolden pins the emitted stream of every suite program:
// its hash, the counter it feeds, and the block accounting.  It is the
// wall for the block path — any change to event synthesis, dependence
// flags or flush placement changes a line here.  Regenerate with
// go test ./internal/core -run TestEventStreamGolden -update, and only for
// a change that means to alter the stream.
func TestEventStreamGolden(t *testing.T) {
	var got bytes.Buffer
	for _, p := range workloads.Suite(streamScale) {
		h := newStreamHash()
		res, err := core.RunWithSink(p, h)
		if err != nil {
			t.Fatal(err)
		}
		c, b := res.Counter, res.Batch
		fmt.Fprintf(&got, "%s hash=%016x total=%d kinds=%v taken=%d events=%d blocks=%d fill=%d final=%d\n",
			p.ID(), h.h, c.Total, c.ByKind, c.TakenBr, b.Events, b.Blocks, b.FlushFill, b.FlushFinal)
	}
	path := filepath.Join("testdata", "event_stream.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("event streams differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

// TestCountingMatchesEmitting is the counting probe's differential test:
// for every suite program, a counter-only run (the probe counts, emitting
// nothing) and a run with an emitting consumer attached (the telemetry
// observer, which puts every event through the block path) must agree on
// the counter, the probe's books, and the guest's output.
func TestCountingMatchesEmitting(t *testing.T) {
	for _, p := range workloads.Suite(streamScale) {
		counted, err := core.Measure(p)
		if err != nil {
			t.Fatal(err)
		}
		emitted, err := core.Measure(p, core.WithTelemetry(telemetry.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		if counted.Counter != emitted.Counter {
			t.Errorf("%s: counting counter %+v, emitting %+v", p.ID(), counted.Counter, emitted.Counter)
		}
		if !reflect.DeepEqual(counted.Stats, emitted.Stats) {
			t.Errorf("%s: counting stats %+v, emitting %+v", p.ID(), counted.Stats, emitted.Stats)
		}
		if counted.Stdout != emitted.Stdout {
			t.Errorf("%s: counting stdout %q, emitting %q", p.ID(), counted.Stdout, emitted.Stdout)
		}
		// Interpreted programs report through the probe, which must have
		// counted rather than emitted; compiled C batches its own stream.
		if p.System != core.SysC && counted.Batch.Events != 0 {
			t.Errorf("%s: counter-only run emitted %d events", p.ID(), counted.Batch.Events)
		}
		if emitted.Batch.Events != emitted.Counter.Total {
			t.Errorf("%s: emitting run delivered %d of %d events", p.ID(), emitted.Batch.Events, emitted.Counter.Total)
		}
	}
}
