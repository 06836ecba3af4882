package trace

// Counter tallies an event stream without simulating anything.  It is the
// cheapest sink and backs the pure-counting experiments (Tables 1 and 2).
// A probe whose sink is a Counter skips the stream altogether and tallies
// into it directly (atom.NewProbe).
type Counter struct {
	Total   uint64
	ByKind  [numKinds]uint64
	TakenBr uint64
}

// Emit records e.
func (c *Counter) Emit(e Event) {
	c.Total++
	c.ByKind[e.Kind]++
	if e.Kind == Branch && e.Taken() {
		c.TakenBr++
	}
}

// EmitBlock records a whole batch: the per-kind tally comes from the
// block's shared KindCounts table (nine adds), and only blocks that
// actually contain branches pay a scan for the taken count.  The scan
// masks each taken flag by a branch select instead of testing the kind,
// so it carries no data-dependent jump to mispredict; FlagTaken is bit
// 0, so each masked flag adds 0 or 1.
func (c *Counter) EmitBlock(b *Block) {
	c.Total += uint64(b.N)
	cnt := b.KindCounts()
	for k, n := range cnt {
		c.ByKind[k] += uint64(n)
	}
	if cnt[Branch] == 0 {
		return
	}
	kinds := b.Kind[:b.N]
	flags := b.Flags[:len(kinds)]
	var taken uint64
	for i, k := range kinds {
		var mask Flags
		if k == Branch {
			mask = FlagTaken
		}
		taken += uint64(flags[i] & mask)
	}
	c.TakenBr += taken
}

// Loads returns the number of Load events seen.
func (c *Counter) Loads() uint64 { return c.ByKind[Load] }

// Stores returns the number of Store events seen.
func (c *Counter) Stores() uint64 { return c.ByKind[Store] }

// Branches returns the number of conditional branch events seen.
func (c *Counter) Branches() uint64 { return c.ByKind[Branch] }

// Kind returns the count for one instruction kind.
func (c *Counter) Kind(k Kind) uint64 { return c.ByKind[k] }

// Multi fans one stream out to several sinks in order.
type Multi []Sink

// Emit forwards e to every sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// EmitBlock forwards the batch to every sink, natively where the sink
// implements BlockSink and unrolled otherwise, so one unconverted sink in
// the fan never forces the others back onto the per-event path.
func (m Multi) EmitBlock(b *Block) {
	for _, s := range m {
		EmitBlockTo(s, b)
	}
}

// Discard drops every event.  A nil sink is not legal on a Probe; Discard is
// the explicit "count nothing, simulate nothing" choice.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(Event) {}

func (discard) EmitBlock(*Block) {}

// Recorder appends every event to memory.  Only suitable for small runs
// (unit tests, debugging); macro workloads produce tens of millions of
// events.
type Recorder struct {
	Events []Event
}

// Emit appends e.
func (r *Recorder) Emit(e Event) { r.Events = append(r.Events, e) }

// EmitBlock appends every event of the batch.
func (r *Recorder) EmitBlock(b *Block) {
	for i := 0; i < b.N; i++ {
		r.Events = append(r.Events, b.Event(i))
	}
}
