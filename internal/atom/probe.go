package atom

import (
	"interplab/internal/trace"
)

// Phase classifies where in the interpretation cycle an instruction belongs.
// The split mirrors Table 2 of the paper: instructions spent fetching and
// decoding a virtual command versus instructions spent executing it, with
// Perl's one-time program precompilation reported separately.
type Phase uint8

const (
	// PhaseFetchDecode covers the dispatch loop and command decoding.
	PhaseFetchDecode Phase = iota
	// PhaseExecute covers the work the virtual command specifies.
	PhaseExecute
	// PhaseStartup covers one-time program precompilation (Perl's parse,
	// MIPSI's binary load, ...).
	PhaseStartup

	numPhases = int(PhaseStartup) + 1
)

// NumPhases counts the phases; Phase values are 0..NumPhases-1.
const NumPhases = numPhases

// phaseNames match the atom.Stats JSON tags (fetch_decode, execute,
// startup) so profile, manifest, and text output share one vocabulary.
var phaseNames = [numPhases]string{"fetch_decode", "execute", "startup"}

// String returns the phase name used by the manifest schema and the
// profiling layer.
func (ph Phase) String() string {
	if int(ph) < numPhases {
		return phaseNames[ph]
	}
	return "invalid"
}

// OpID names a virtual command, interned on a Probe.
type OpID int

// RegionID names an attribution region (e.g. the memory-model machinery),
// interned on a Probe.
type RegionID int

// Probe is the measurement context for one run: interpreters report work to
// it, and it emits the native-instruction stream while keeping per-command
// and per-region accounts.
type Probe struct {
	img *Image

	// count is set when the probe's sink is a lone *trace.Counter: the
	// probe then runs in counting mode, tallying instructions straight into
	// it without building events.  Otherwise batch buffers emitted events
	// into struct-of-arrays blocks and hands whole blocks to the sink;
	// attrTag, when set, records a tagged segment boundary in the buffered
	// block at every attribution change (MarkAttrBoundaries).
	count   *trace.Counter
	batch   *trace.Batcher
	attrTag func() any

	cur      *Routine
	frames   []frame
	sp       uint32
	stackReg *DataRegion

	// frameTop tracks the identity of the pushed-frame list in a trie
	// (FramesID); frameN hands out trie-node ids.
	frameTop *frameNode
	frameN   uint64

	lastDep bool
	depRng  uint32

	phase    Phase
	curOp    OpID
	ops      []opStat
	opNames  map[string]OpID
	commands uint64

	// countPairs switches on dynamic opcode-pair profiling: BeginCommand
	// counts every (previous, current) command pair in pairs, keyed
	// prev<<32|cur.  Off by default — the map update costs a few ns per
	// command, so only hot-pair measurements pay it.
	countPairs bool
	lastOp     OpID
	pairs      map[uint64]uint64

	// attrVersion increments whenever the attribution state a sink could
	// observe (frame stack, current routine, open command, phase) changes.
	// Profiling sinks use it to re-resolve their sample stack only on
	// transitions instead of on every event.
	attrVersion uint64

	regions     []regionStat
	regionNames map[string]RegionID
	regionStack []RegionID

	total   uint64
	byPhase [numPhases]uint64
	loads   uint64
	stores  uint64
	// opTotals accumulate only while a command is open.
	unattributed uint64
}

type frame struct {
	r      *Routine
	cursor int
}

// frameNode is one vertex of the probe's call-stack identity trie: the
// path of pushed routines from the root names one frames list, and id is
// its dense identifier (the empty list is 0).  Two moments with equal
// FramesID have byte-identical pushed frames, which lets attribution
// consumers use the id as a cache-key component instead of re-walking the
// stack.
type frameNode struct {
	id   uint64
	par  *frameNode
	kids map[*Routine]*frameNode
}

type opStat struct {
	name  string
	count uint64
	fd    uint64
	ex    uint64
}

type regionStat struct {
	name     string
	instr    uint64
	accesses uint64
}

// NewProbe returns a probe over img writing events to sink.  When sink is
// a *trace.Counter the probe counts instead of emitting: the counter ends
// with the tallies the emitted stream would have given it, and no event is
// built.  Any other sink receives the full stream in blocks.
func NewProbe(img *Image, sink trace.Sink) *Probe {
	if sink == nil {
		sink = trace.Discard
	}
	c, _ := sink.(*trace.Counter)
	p := &Probe{
		img:         img,
		count:       c,
		batch:       trace.NewBatcher(sink),
		curOp:       -1,
		lastOp:      -1,
		opNames:     make(map[string]OpID),
		regionNames: make(map[string]RegionID),
		depRng:      0x9e3779b9,
		sp:          StackTop,
	}
	p.stackReg = &DataRegion{Name: "native-stack", Base: StackTop - 1<<20, Size: 1 << 20}
	return p
}

// Image returns the image the probe executes against.
func (p *Probe) Image() *Image { return p.img }

// --- batched emission --------------------------------------------------------

// MarkAttrBoundaries registers a callback invoked at every attribution
// change (command begin/end, phase switch, call/return, routine switch)
// while the outgoing state — the one every buffered event was emitted
// under — is still live; its return value is recorded as a tagged segment
// boundary (trace.SegMark) in the buffered block.  A profiling sink
// resolves each segment of a full block from its tag, both for the events
// themselves and for cache misses a simulator reports against them, so
// blocks stay at capacity.  Boundaries with no events since the previous
// one are skipped without calling tag.
func (p *Probe) MarkAttrBoundaries(tag func() any) { p.attrTag = tag }

// FlushEvents delivers any buffered events to the sink.  Call it before
// reading sink-side state (counters, recorders, simulators, profiles);
// measurements do this once at collect time.
func (p *Probe) FlushEvents() { p.batch.Flush(trace.FlushFinal) }

// BatchStats returns the probe's batching account: events and blocks
// delivered, split by flush trigger.  All zero in counting mode.
func (p *Probe) BatchStats() trace.BatchStats { return p.batch.Stats() }

// bumpAttr records an attribution change: while the outgoing state, under
// which every buffered event was emitted, is still live, the buffer is
// segment-marked for boundary-marking consumers; then the version moves.
// Callers must invoke it BEFORE mutating attribution state.
func (p *Probe) bumpAttr() {
	if p.attrTag != nil && p.batch.NeedMark() {
		p.batch.Mark(p.attrTag())
	}
	p.attrVersion++
}

// --- virtual command accounting -------------------------------------------

// OpName interns a virtual-command name.  Interpreters should intern once,
// at setup, and use the returned id on the hot path.
func (p *Probe) OpName(name string) OpID {
	if id, ok := p.opNames[name]; ok {
		return id
	}
	id := OpID(len(p.ops))
	p.ops = append(p.ops, opStat{name: name})
	p.opNames[name] = id
	return id
}

// BeginCommand opens a virtual command: the command count increments and
// subsequent instructions are attributed to the command's fetch/decode
// phase until BeginExecute.
func (p *Probe) BeginCommand(op OpID) {
	p.bumpAttr()
	p.curOp = op
	p.ops[op].count++
	p.commands++
	p.phase = PhaseFetchDecode
	if p.countPairs {
		if p.lastOp >= 0 {
			p.pairs[uint64(p.lastOp)<<32|uint64(uint32(op))]++
		}
		p.lastOp = op
	}
}

// CountPairs switches dynamic opcode-pair counting on or off: while on,
// every BeginCommand records the (previous, current) command pair, and
// Stats reports the hottest pairs (Stats.Pairs).  The counts are the
// profile layer's superinstruction-selection input (the fused-pair tables
// in internal/jvm and internal/mipsi cite them); they are off by default
// so ordinary measurements don't pay for the map update.
func (p *Probe) CountPairs(on bool) {
	p.countPairs = on
	if on && p.pairs == nil {
		p.pairs = make(map[uint64]uint64)
	}
}

// BeginExecute switches attribution of the open command to its execute
// phase.
func (p *Probe) BeginExecute() {
	p.bumpAttr()
	p.phase = PhaseExecute
}

// EndCommand closes the open command; instructions between commands belong
// to fetch/decode (the dispatch loop).
func (p *Probe) EndCommand() {
	p.bumpAttr()
	p.curOp = -1
	p.phase = PhaseFetchDecode
}

// SetStartup switches the probe in or out of the startup (precompilation)
// phase.
func (p *Probe) SetStartup(on bool) {
	p.bumpAttr()
	if on {
		p.phase = PhaseStartup
	} else {
		p.phase = PhaseFetchDecode
	}
}

// Commands returns the number of virtual commands begun so far.
func (p *Probe) Commands() uint64 { return p.commands }

// Total returns the number of native instructions emitted so far.
func (p *Probe) Total() uint64 { return p.total }

// --- attribution state (for profiling sinks) --------------------------------

// AttrVersion returns a counter that increments whenever the probe's
// attribution state (call stack, current routine, open command, phase)
// changes.  A sink observing the event stream may cache the resolved stack
// and re-resolve only when the version moves.
func (p *Probe) AttrVersion() uint64 { return p.attrVersion }

// CallStack appends the probe's current native call stack to buf —
// outermost caller first, ending at the routine currently executing — and
// returns the extended slice.  Routines entered via Exec without a Call
// appear as the leaf.
func (p *Probe) CallStack(buf []*Routine) []*Routine {
	for _, f := range p.frames {
		if f.r != nil {
			buf = append(buf, f.r)
		}
	}
	if p.cur != nil {
		buf = append(buf, p.cur)
	}
	return buf
}

// CurrentPhase returns the phase instructions are being attributed to.
func (p *Probe) CurrentPhase() Phase { return p.phase }

// CurrentOp returns the name of the open virtual command, or "" and false
// between commands (the dispatch loop and startup).
func (p *Probe) CurrentOp() (string, bool) {
	if p.curOp < 0 {
		return "", false
	}
	return p.ops[p.curOp].name, true
}

// CurrentOpID returns the open virtual command's interned id, or -1
// between commands.  Ids are stable for the probe's lifetime, so together
// with FramesID, CurrentRoutine, and CurrentPhase they form a complete,
// cheaply comparable key for the probe's attribution state.
func (p *Probe) CurrentOpID() OpID { return p.curOp }

// CurrentRoutine returns the routine currently executing — the call-stack
// leaf — or nil before any Exec.
func (p *Probe) CurrentRoutine() *Routine { return p.cur }

// FramesID identifies the current pushed-frame list (the call stack
// excluding the executing leaf): equal ids mean identical frames.  The id
// is maintained incrementally on Call/Ret, so reading it is one load.
func (p *Probe) FramesID() uint64 {
	if p.frameTop == nil {
		return 0
	}
	return p.frameTop.id
}

// pushFrameID descends the identity trie for a frame push of r.
func (p *Probe) pushFrameID(r *Routine) {
	t := p.frameTop
	if t == nil {
		t = &frameNode{}
		p.frameTop = t
	}
	c, ok := t.kids[r]
	if !ok {
		p.frameN++
		c = &frameNode{id: p.frameN, par: t}
		if t.kids == nil {
			t.kids = make(map[*Routine]*frameNode, 4)
		}
		t.kids[r] = c
	}
	p.frameTop = c
}

// popFrameID ascends the identity trie for a frame pop.
func (p *Probe) popFrameID() {
	if p.frameTop != nil && p.frameTop.par != nil {
		p.frameTop = p.frameTop.par
	}
}

// --- region accounting ------------------------------------------------------

// RegionName interns an attribution region name.
func (p *Probe) RegionName(name string) RegionID {
	if id, ok := p.regionNames[name]; ok {
		return id
	}
	id := RegionID(len(p.regions))
	p.regions = append(p.regions, regionStat{name: name})
	p.regionNames[name] = id
	return id
}

// Enter pushes an attribution region; instructions emitted until the
// matching Leave are credited to it (inclusively, through nesting).
func (p *Probe) Enter(id RegionID) { p.regionStack = append(p.regionStack, id) }

// Leave pops the innermost attribution region.
func (p *Probe) Leave() { p.regionStack = p.regionStack[:len(p.regionStack)-1] }

// CountAccess records one memory-model access against a region, for the
// §3.3 per-access averages.
func (p *Probe) CountAccess(id RegionID) { p.regions[id].accesses++ }

// --- instruction emission ---------------------------------------------------

func (p *Probe) account(n uint64) {
	p.total += n
	p.byPhase[p.phase] += n
	if p.curOp >= 0 {
		switch p.phase {
		case PhaseFetchDecode:
			p.ops[p.curOp].fd += n
		case PhaseExecute:
			p.ops[p.curOp].ex += n
		}
	} else if p.phase == PhaseFetchDecode {
		p.unattributed += n
	}
	for _, id := range p.regionStack {
		p.regions[id].instr += n
	}
}

// emit sends one event, handling dependence flags.
func (p *Probe) emit(e trace.Event) {
	if p.lastDep {
		// Roughly half of the instructions that follow a load or a
		// long-latency op consume its result; the deterministic
		// generator keeps runs repeatable.
		x := p.depRng
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.depRng = x
		if x&1 == 0 {
			e.Flags |= trace.FlagDep
		}
	}
	p.lastDep = e.Kind == trace.Load || e.Kind == trace.ShortInt || e.Kind == trace.Mul
	p.batch.Append(e)
}

// tally counts n instructions of kind k in counting mode.
func (p *Probe) tally(k trace.Kind, n uint64) {
	p.count.Total += n
	p.count.ByKind[k] += n
}

// Exec reports n executed instructions inside routine r.  The probe walks
// r's address range from its current cursor, emitting integer instructions
// seasoned with the routine's short-integer and conditional-branch mix, and
// loops back to the top when it falls off the end — modelling the inner
// loops that make a routine's dynamic instruction count exceed its static
// size.
func (p *Probe) Exec(r *Routine, n int) {
	if n <= 0 {
		return
	}
	p.setCur(r)
	p.account(uint64(n))
	if p.count != nil {
		p.countExec(r, n)
		return
	}
	for i := 0; i < n; i++ {
		pc := r.pc()
		r.cursor++
		r.sinceBr++
		r.sinceSh++
		if r.cursor >= r.Size {
			// Loop back to the routine top: a taken backward branch.
			r.cursor = 0
			r.sinceBr = 0
			p.emit(trace.Event{PC: pc, Addr: r.Base, Kind: trace.Branch, Flags: trace.FlagTaken})
			continue
		}
		if r.sinceBr >= r.branchEvery {
			fl := trace.Flags(0)
			taken, target := r.branch(pc)
			if taken {
				fl = trace.FlagTaken
			}
			p.emit(trace.Event{PC: pc, Addr: target, Kind: trace.Branch, Flags: fl})
			continue
		}
		if r.sinceSh >= r.shortEvery {
			r.sinceSh = 0
			p.emit(trace.Event{PC: pc, Kind: trace.ShortInt})
			continue
		}
		p.emit(trace.Event{PC: pc, Kind: trace.Int})
	}
}

// countExec is Exec in counting mode.  Between two branch steps the walk
// is pure arithmetic on the routine's cursor and step counters, so each
// straight-line run is counted in one step; every branch step — the wrap
// at the routine end or a conditional-branch site — is taken exactly as
// the emitting walk takes it, so r's walk state ends where that walk
// would leave it and later branch decisions match.
func (p *Probe) countExec(r *Routine, n int) {
	var ints, shorts, branches, taken int
	for n > 0 {
		// Straight-line steps before the next branch step, which comes at
		// the routine end or the next branch site, whichever is first.
		m := min(r.Size-r.cursor, r.branchEvery-r.sinceBr, n+1) - 1
		if m > 0 {
			// A ShortInt falls on the first step where sinceSh reaches
			// shortEvery, then every shortEvery steps.
			sh := 0
			if first := max(1, r.shortEvery-r.sinceSh); first <= m {
				sh = 1 + (m-first)/r.shortEvery
				r.sinceSh = m - first - (sh-1)*r.shortEvery
			} else {
				r.sinceSh += m
			}
			shorts += sh
			ints += m - sh
			r.cursor += m
			r.sinceBr += m
			n -= m
			if n == 0 {
				break
			}
		}
		pc := r.pc()
		r.cursor++
		r.sinceBr++
		r.sinceSh++
		n--
		branches++
		if r.cursor >= r.Size {
			r.cursor = 0
			r.sinceBr = 0
			taken++
		} else if t, _ := r.branch(pc); t {
			taken++
		}
	}
	p.tally(trace.Int, uint64(ints))
	p.tally(trace.ShortInt, uint64(shorts))
	p.tally(trace.Branch, uint64(branches))
	p.count.TakenBr += uint64(taken)
}

// setCur switches the executing routine, bumping the attribution version
// when it actually changes.
func (p *Probe) setCur(r *Routine) {
	if p.cur != r {
		p.bumpAttr()
		p.cur = r
	}
}

// ExecMul reports n long-latency (multiply/divide) instructions in r.
func (p *Probe) ExecMul(r *Routine, n int) {
	p.setCur(r)
	p.account(uint64(n))
	if p.count != nil {
		if n > 0 {
			p.tally(trace.Mul, uint64(n))
			r.cursor = (r.cursor + n) % r.Size
		}
		return
	}
	for i := 0; i < n; i++ {
		pc := r.pc()
		r.cursor = (r.cursor + 1) % r.Size
		p.emit(trace.Event{PC: pc, Kind: trace.Mul})
	}
}

// step advances the current routine's cursor and returns the instruction
// address for a memory or control event.
func (p *Probe) step() uint32 {
	r := p.cur
	if r == nil {
		return CodeBase
	}
	pc := r.pc()
	r.cursor = (r.cursor + 1) % r.Size
	return pc
}

// Load reports one load at addr issued from the current routine.
func (p *Probe) Load(addr uint32) {
	p.account(1)
	p.loads++
	if p.count != nil {
		p.step()
		p.tally(trace.Load, 1)
		return
	}
	p.emit(trace.Event{PC: p.step(), Addr: addr, Kind: trace.Load})
}

// Store reports one store at addr issued from the current routine.
func (p *Probe) Store(addr uint32) {
	p.account(1)
	p.stores++
	if p.count != nil {
		p.step()
		p.tally(trace.Store, 1)
		return
	}
	p.emit(trace.Event{PC: p.step(), Addr: addr, Kind: trace.Store})
}

// LoadRange reports n word loads walking forward from addr — an array or
// string traversal.
func (p *Probe) LoadRange(addr uint32, n int) {
	for i := 0; i < n; i++ {
		p.Load(addr + uint32(i)*4)
	}
}

// StoreRange reports n word stores walking forward from addr.
func (p *Probe) StoreRange(addr uint32, n int) {
	for i := 0; i < n; i++ {
		p.Store(addr + uint32(i)*4)
	}
}

// Call reports a subroutine call into r: a jump event, callee-save stores on
// the native stack, and the callee starts executing at its top.
func (p *Probe) Call(r *Routine) {
	var retpc uint32 = CodeBase
	if p.cur != nil {
		retpc = p.cur.pc()
	}
	p.account(1)
	// The jump belongs to the caller: it is emitted — and segment-marked —
	// before the frame push changes the call stack.
	if p.count != nil {
		p.tally(trace.Jump, 1)
	} else {
		p.emit(trace.Event{PC: retpc, Addr: r.Base, Kind: trace.Jump, Flags: trace.FlagCall})
	}
	p.bumpAttr()
	p.frames = append(p.frames, frame{r: p.cur, cursor: cursorOf(p.cur)})
	p.pushFrameID(p.cur)
	p.cur = r
	r.cursor = 0
	// Frame setup: push return address and a saved register.
	p.sp -= 16
	p.Store(p.sp)
	p.Store(p.sp + 8)
}

// Ret reports a subroutine return to the calling routine.
func (p *Probe) Ret() {
	if len(p.frames) == 0 {
		return
	}
	// Frame teardown: restore saved registers.
	p.Load(p.sp)
	p.Load(p.sp + 8)
	p.sp += 16
	f := p.frames[len(p.frames)-1]
	pc := p.step()
	var ret uint32 = CodeBase
	if f.r != nil {
		f.r.cursor = f.cursor
		ret = f.r.pc()
	}
	p.account(1)
	// The return belongs to the callee: it is emitted — and
	// segment-marked — before the frame pop changes the call stack.
	if p.count != nil {
		p.tally(trace.Return, 1)
	} else {
		p.emit(trace.Event{PC: pc, Addr: ret, Kind: trace.Return})
	}
	p.bumpAttr()
	p.frames = p.frames[:len(p.frames)-1]
	p.popFrameID()
	p.cur = f.r
}

func cursorOf(r *Routine) int {
	if r == nil {
		return 0
	}
	return r.cursor
}
