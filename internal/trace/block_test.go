package trace

import (
	"testing"
	"testing/quick"
)

// mkEvents derives a deterministic pseudo-random event stream from a byte
// seed, covering every kind and flag combination the producers emit.
func mkEvents(seed []byte) []Event {
	evs := make([]Event, len(seed))
	for i, b := range seed {
		evs[i] = Event{
			PC:    uint32(b) * 4,
			Addr:  uint32(b) * 16,
			Kind:  Kind(int(b) % numKinds),
			Flags: Flags(b >> 5),
		}
	}
	return evs
}

func TestBlockAppendRoundTrip(t *testing.T) {
	var b Block
	evs := mkEvents([]byte{0, 1, 7, 42, 200, 255})
	for _, e := range evs {
		b.Append(e)
	}
	if b.N != len(evs) {
		t.Fatalf("N = %d, want %d", b.N, len(evs))
	}
	for i, e := range evs {
		if b.Event(i) != e {
			t.Errorf("event %d = %+v, want %+v", i, b.Event(i), e)
		}
	}
	b.Reset()
	if b.N != 0 {
		t.Errorf("Reset left N = %d", b.N)
	}
}

func TestBlockFullAtCap(t *testing.T) {
	var b Block
	for i := 0; i < BlockCap; i++ {
		b.Append(Event{PC: uint32(i)})
	}
	if b.N != BlockCap {
		t.Fatalf("block holds %d events, want %d", b.N, BlockCap)
	}
}

// TestEmitBlockToUnrollsForPlainSinks pins the compatibility shim: a sink
// without an EmitBlock method receives every event of the block, in order,
// through Emit.
func TestEmitBlockToUnrollsForPlainSinks(t *testing.T) {
	var b Block
	evs := mkEvents([]byte{3, 14, 15, 92, 65})
	for _, e := range evs {
		b.Append(e)
	}
	var got []Event
	EmitBlockTo(SinkFunc(func(e Event) { got = append(got, e) }), &b)
	if len(got) != len(evs) {
		t.Fatalf("unrolled %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
}

// TestBlockSinksMatchPerEvent is the block-path equivalence property: for
// any event sequence, delivering it as blocks leaves the Counter and
// Recorder in exactly the state per-event delivery would.
func TestBlockSinksMatchPerEvent(t *testing.T) {
	f := func(seed []byte) bool {
		evs := mkEvents(seed)
		var perEvent, blocked Counter
		var recPer, recBlk Recorder
		var b Block
		for _, e := range evs {
			perEvent.Emit(e)
			recPer.Emit(e)
			b.Append(e)
			if b.N == BlockCap {
				blocked.EmitBlock(&b)
				recBlk.EmitBlock(&b)
				b.Reset()
			}
		}
		if b.N > 0 {
			blocked.EmitBlock(&b)
			recBlk.EmitBlock(&b)
		}
		if perEvent != blocked {
			return false
		}
		if len(recPer.Events) != len(recBlk.Events) {
			return false
		}
		for i := range recPer.Events {
			if recPer.Events[i] != recBlk.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMultiEmitBlockFansInOrder checks that a Multi hands the block to each
// member in fan order, using each member's native block path or the shim.
func TestMultiEmitBlockFansInOrder(t *testing.T) {
	var c Counter
	var order []string
	plain := SinkFunc(func(Event) { order = append(order, "plain") })
	m := Multi{&c, plain}
	var b Block
	b.Append(Event{Kind: Load})
	b.Append(Event{Kind: Store})
	m.EmitBlock(&b)
	if c.Total != 2 {
		t.Errorf("counter saw %d events, want 2", c.Total)
	}
	if len(order) != 2 {
		t.Errorf("plain sink saw %d events, want 2 (shim unroll)", len(order))
	}
}

func TestBatcherFlushReasons(t *testing.T) {
	var rec Recorder
	ba := NewBatcher(&rec)
	// Fill one block exactly, plus a partial tail.
	for i := 0; i < BlockCap+10; i++ {
		ba.Append(Event{PC: uint32(i)})
	}
	if st := ba.Stats(); st.Blocks != 1 || st.Events != BlockCap {
		t.Errorf("after one fill, stats = %+v, want 1 block of %d events", st, BlockCap)
	}
	ba.Flush(FlushFinal)
	ba.Flush(FlushFinal) // empty: must not produce a block
	st := ba.Stats()
	want := BatchStats{Events: BlockCap + 10, Blocks: 2, FlushFill: 1, FlushFinal: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if st.Flushes() != st.Blocks {
		t.Errorf("flushes %d != blocks %d", st.Flushes(), st.Blocks)
	}
	if len(rec.Events) != BlockCap+10 {
		t.Errorf("sink saw %d events, want %d", len(rec.Events), BlockCap+10)
	}
}

func TestBatcherNilSinkDiscards(t *testing.T) {
	ba := NewBatcher(nil)
	ba.Append(Event{})
	ba.Flush(FlushFinal) // must not panic
	if st := ba.Stats(); st.Events != 1 || st.Blocks != 1 {
		t.Errorf("stats = %+v, want 1 event in 1 block", st)
	}
}

func TestBatchStatsAccounting(t *testing.T) {
	var s BatchStats
	if s.EventsPerBlock() != 0 {
		t.Error("empty stats must report 0 events/block")
	}
	s.Add(BatchStats{Events: 100, Blocks: 4, FlushFill: 3, FlushFinal: 1})
	s.Add(BatchStats{Events: 20, Blocks: 1, FlushFinal: 1})
	if s.Events != 120 || s.Blocks != 5 || s.Flushes() != 5 {
		t.Errorf("merged stats wrong: %+v", s)
	}
	if got := s.EventsPerBlock(); got != 24 {
		t.Errorf("events/block = %g, want 24", got)
	}
}

func TestCombineCollapses(t *testing.T) {
	var c Counter
	var rec Recorder
	if got := Combine(); got != Discard {
		t.Errorf("Combine() = %T, want Discard", got)
	}
	if got := Combine(nil, Discard, nil); got != Discard {
		t.Errorf("Combine(nil, Discard) = %T, want Discard", got)
	}
	if got := Combine(nil, &c, Discard); got != &c {
		t.Errorf("Combine with one live sink must return it unwrapped, got %T", got)
	}
	m, ok := Combine(&c, &rec).(Multi)
	if !ok || len(m) != 2 {
		t.Fatalf("Combine with two sinks = %T, want Multi of 2", m)
	}
	if m[0] != Sink(&c) || m[1] != Sink(&rec) {
		t.Error("Combine must preserve fan order")
	}
}

// markRecorder captures each delivered block's marks (copied — blocks are
// reused) alongside its event count.
type markRecorder struct {
	ns    []int
	marks [][]SegMark
}

func (r *markRecorder) Emit(Event) { panic("block producer must not unroll") }

func (r *markRecorder) EmitBlock(b *Block) {
	r.ns = append(r.ns, b.N)
	r.marks = append(r.marks, append([]SegMark(nil), b.Marks...))
}

func TestBatcherMarksSegments(t *testing.T) {
	var rec markRecorder
	ba := NewBatcher(&rec)

	if ba.NeedMark() {
		t.Error("empty batcher must not need a mark")
	}
	ba.Mark("dropped") // no events buffered: must record nothing

	evs := mkEvents([]byte{1, 2, 3, 4, 5, 6, 7})
	for _, e := range evs[:3] {
		ba.Append(e)
	}
	if !ba.NeedMark() {
		t.Error("3 unmarked events buffered: NeedMark must be true")
	}
	ba.Mark("a")
	if ba.NeedMark() {
		t.Error("mark just recorded: NeedMark must be false")
	}
	ba.Mark("empty-segment") // same position: must be dropped
	for _, e := range evs[3:5] {
		ba.Append(e)
	}
	ba.Mark("b")
	for _, e := range evs[5:] {
		ba.Append(e)
	}
	ba.Flush(FlushFinal)

	if len(rec.marks) != 1 {
		t.Fatalf("blocks delivered = %d, want 1", len(rec.marks))
	}
	want := []SegMark{{End: 3, Tag: "a"}, {End: 5, Tag: "b"}}
	got := rec.marks[0]
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("marks = %+v, want %+v", got, want)
	}
	if rec.ns[0] != len(evs) {
		t.Errorf("block N = %d, want %d", rec.ns[0], len(evs))
	}

	// Reuse must not leak stale marks: after a marked block, the reused
	// block starts with none.
	for i := 0; i < 2; i++ {
		ba.Append(evs[i])
	}
	ba.Flush(FlushFinal)
	last := rec.marks[len(rec.marks)-1]
	if len(last) != 0 {
		t.Errorf("reused block carried stale marks: %+v", last)
	}
}
