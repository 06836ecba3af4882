package trace

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMultiFanOutOrdering pins Multi's contract: for each event, sinks are
// visited in slice order, and each sink sees the events in stream order.
func TestMultiFanOutOrdering(t *testing.T) {
	var log []string
	tap := func(name string) Sink {
		return SinkFunc(func(e Event) { log = append(log, fmt.Sprintf("%s:%d", name, e.PC)) })
	}
	m := Multi{tap("a"), tap("b"), tap("c")}
	m.Emit(Event{PC: 1})
	m.Emit(Event{PC: 2})
	want := []string{"a:1", "b:1", "c:1", "a:2", "b:2", "c:2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fan-out order wrong at %d: log = %v, want %v", i, log, want)
		}
	}
}

// TestCounterNotTakenBranch pins that TakenBr counts only taken
// conditional branches: not-taken branches, and taken-looking flags on
// non-branch kinds, must not count.
func TestCounterNotTakenBranch(t *testing.T) {
	var c Counter
	c.Emit(Event{Kind: Branch})                   // not taken
	c.Emit(Event{Kind: Branch})                   // not taken
	c.Emit(Event{Kind: Branch, Flags: FlagTaken}) // taken
	c.Emit(Event{Kind: Jump, Flags: FlagTaken})   // not a conditional branch
	c.Emit(Event{Kind: Int, Flags: FlagTaken})    // flag noise on ALU op
	if c.Branches() != 3 {
		t.Errorf("Branches = %d, want 3", c.Branches())
	}
	if c.TakenBr != 1 {
		t.Errorf("TakenBr = %d, want 1 (not-taken must not count)", c.TakenBr)
	}
}

// TestCounterEmitBlockMatchesEmit: on random blocks of every size up to
// BlockCap, with every kind and flag mixed (FlagTaken on non-branch kinds
// included), EmitBlock must leave the Counter exactly as per-event Emit.
func TestCounterEmitBlockMatchesEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var perEvent, blocked Counter
	var b Block
	for round := 0; round < 200; round++ {
		b.Reset()
		n := 1 + rng.Intn(BlockCap)
		if round%4 == 0 {
			n = BlockCap
		}
		for i := 0; i < n; i++ {
			e := Event{PC: rng.Uint32(), Addr: rng.Uint32(), Kind: Kind(rng.Intn(NumKinds)), Flags: Flags(rng.Intn(8))}
			perEvent.Emit(e)
			b.Append(e)
		}
		blocked.EmitBlock(&b)
		if perEvent != blocked {
			t.Fatalf("round %d (%d events): block counter %+v, per-event %+v", round, n, blocked, perEvent)
		}
	}
	if perEvent.TakenBr == 0 || perEvent.TakenBr == perEvent.Branches() {
		t.Errorf("stream exercised too little: %d taken of %d branches", perEvent.TakenBr, perEvent.Branches())
	}
}

// TestMultiEmpty pins that an empty Multi is a valid no-op sink.
func TestMultiEmpty(t *testing.T) {
	var m Multi
	m.Emit(Event{Kind: Load}) // must not panic
}
