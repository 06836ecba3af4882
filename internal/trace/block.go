package trace

// This file is the batched event pipeline.  A full interp-lab run pushes
// on the order of 10^9 Events through trace.Sink.Emit; at one interface
// call per event the instrumentation dominates the lab's wall time (the
// BENCH_telemetry.json overhead arms).  Blocks amortize that cost: the
// probe accumulates events into a struct-of-arrays Block and hands whole
// blocks to sinks, so the per-event work collapses to array writes and the
// per-sink interface dispatch happens once per a few thousand events.
//
// The struct-of-arrays layout (parallel PC/Addr/Kind/Flags arrays rather
// than an []Event) keeps each consumer's inner loop touching only the
// columns it needs: a cache sweep streams the PC column, a counter the
// Kind column, without dragging the rest through the data cache.

// BlockCap is the event capacity of one Block.  4096 events keep a block
// around 40KB — comfortably inside L2 — while making the per-block
// dispatch overhead negligible.
const BlockCap = 4096

// FlushReason records why a block was handed to the sink; the telemetry
// layer surfaces the per-reason counts (trace.batch.* counters and the
// manifest batch field).
type FlushReason uint8

const (
	// FlushFill means the block reached BlockCap.
	FlushFill FlushReason = iota
	// FlushFinal means the stream ended (end of run, or an explicit
	// flush before reading accumulated sink state).
	FlushFinal
)

// SegMark ends an attribution segment inside a block: the events in
// [previous mark's End, End) were emitted under the attribution state Tag
// stands for.  Tags are opaque to the trace layer — the producer records
// whatever the attribution-sensitive consumer handed it (the profiling
// collector uses its resolved sample node), and consumers that don't
// understand a block's tags simply ignore Marks.  Events after the last
// mark belong to the state still current when the block is delivered.
// Marks serve every consumer that attributes within a block: the profiling
// collector charges each segment to its tag, and joins the pipeline's
// cache misses, reported by event index, to the segment holding the event.
type SegMark struct {
	End int
	Tag any
}

// Block is a struct-of-arrays batch of events: element i of each array is
// one event, N counts the valid prefix.  Blocks are reused — a sink must
// finish with the block before EmitBlock returns and must not retain it.
type Block struct {
	PC    [BlockCap]uint32
	Addr  [BlockCap]uint32
	Kind  [BlockCap]Kind
	Flags [BlockCap]Flags

	// N is the number of valid events.
	N int
	// Marks lists attribution segment boundaries in ascending End order
	// (empty unless the producer runs in boundary-marking mode).
	Marks []SegMark

	// kindCnt caches KindCounts' tally; it is valid while kindN == N.
	kindCnt [numKinds]uint32
	kindN   int
}

// Append adds e; the caller must ensure the block is not full.
func (b *Block) Append(e Event) {
	b.PC[b.N] = e.PC
	b.Addr[b.N] = e.Addr
	b.Kind[b.N] = e.Kind
	b.Flags[b.N] = e.Flags
	b.N++
}

// Reset empties the block for reuse.
func (b *Block) Reset() {
	b.N = 0
	b.Marks = b.Marks[:0]
	b.kindN = -1
}

// KindCounts returns the per-kind tally of the block's N events.  The
// first caller after the block is sealed pays one branch-free pass over
// the Kind column; every further consumer (the counter, the observer)
// reuses the cached table, so a fan of counting sinks scans the column
// once per block instead of once per sink.  The returned array is valid
// until the block is appended to or reset.
func (b *Block) KindCounts() *[numKinds]uint32 {
	if b.kindN != b.N {
		var cnt [numKinds]uint32
		for _, k := range b.Kind[:b.N] {
			cnt[k]++
		}
		b.kindCnt = cnt
		b.kindN = b.N
	}
	return &b.kindCnt
}

// Event reconstructs element i as an Event value.
func (b *Block) Event(i int) Event {
	return Event{PC: b.PC[i], Addr: b.Addr[i], Kind: b.Kind[i], Flags: b.Flags[i]}
}

// BlockSink consumes whole event batches.  Sinks that implement it receive
// blocks natively; the rest get the block unrolled event by event through
// the EmitBlockTo shim, so converting a sink is an optimization, never a
// requirement.  Events within a block are in program order, and blocks
// arrive in stream order.
type BlockSink interface {
	EmitBlock(b *Block)
}

// EmitBlockTo delivers b to s: natively when s implements BlockSink,
// otherwise unrolled into per-event Emit calls.  It is the compatibility
// shim between batching producers and unconverted sinks.
func EmitBlockTo(s Sink, b *Block) {
	if bs, ok := s.(BlockSink); ok {
		bs.EmitBlock(b)
		return
	}
	for i := 0; i < b.N; i++ {
		s.Emit(b.Event(i))
	}
}

// BatchStats accounts a producer's batching behavior: how many events
// traveled in how many blocks, and what triggered each flush.  The JSON
// tags are the manifest schema's "batch" object (docs/OBSERVABILITY.md).
type BatchStats struct {
	Events     uint64 `json:"events"`
	Blocks     uint64 `json:"blocks"`
	FlushFill  uint64 `json:"flush_fill,omitempty"`
	FlushFinal uint64 `json:"flush_final,omitempty"`
}

// Flushes returns the total flush count (== Blocks for a well-formed
// producer; kept separate so the identity is checkable).
func (s BatchStats) Flushes() uint64 { return s.FlushFill + s.FlushFinal }

// EventsPerBlock returns the mean batch size.
func (s BatchStats) EventsPerBlock() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.Blocks)
}

// Add merges other into s.
func (s *BatchStats) Add(other BatchStats) {
	s.Events += other.Events
	s.Blocks += other.Blocks
	s.FlushFill += other.FlushFill
	s.FlushFinal += other.FlushFinal
}

// count tallies one block of n events flushed for reason.
func (s *BatchStats) count(n int, reason FlushReason) {
	s.Events += uint64(n)
	s.Blocks++
	switch reason {
	case FlushFill:
		s.FlushFill++
	case FlushFinal:
		s.FlushFinal++
	}
}

// Combine builds the cheapest sink equivalent to fanning out over sinks in
// order: nil sinks and Discard drop out, zero remaining sinks collapse to
// Discard, one collapses to the sink itself (no per-event loop), and only
// a genuine fan-out pays for a Multi.
func Combine(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s == nil || s == Discard {
			continue
		}
		kept = append(kept, s)
	}
	switch len(kept) {
	case 0:
		return Discard
	case 1:
		return kept[0]
	}
	return Multi(kept)
}
