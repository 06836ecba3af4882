package alphasim

import (
	"fmt"

	"interplab/internal/trace"
)

// Cause identifies a source of unfilled issue slots — the rows of Table 3.
type Cause int

const (
	// CauseOther covers control hazards, bank conflicts, and long-latency
	// multiply/float results.
	CauseOther Cause = iota
	// CauseShortInt is the 2-cycle latency of shift/byte instructions.
	CauseShortInt
	// CauseLoadDelay is the 3-cycle load-use delay on a first-level hit.
	CauseLoadDelay
	// CauseMispredict is branch misprediction (4 cycles).
	CauseMispredict
	// CauseDTLB is a data TLB miss (40 cycles).
	CauseDTLB
	// CauseITLB is an instruction TLB miss (40 cycles).
	CauseITLB
	// CauseDMiss is a first- or second-level data cache miss (6 or 30).
	CauseDMiss
	// CauseIMiss is a first- or second-level instruction cache miss.
	CauseIMiss

	// NumCauses counts the stall categories.
	NumCauses = int(CauseIMiss) + 1
)

var causeNames = [NumCauses]string{
	"other", "short int", "load delay", "mispredict", "dtlb", "itlb", "dmiss", "imiss",
}

// String returns the Table 3 row label.
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return "invalid"
}

// Config describes the simulated machine.  Defaults mirror Table 3.
type Config struct {
	Width int // issue width

	ICache CacheConfig
	DCache CacheConfig
	L2     CacheConfig

	PageSize    uint32
	ITLBEntries int
	DTLBEntries int

	BHTEntries  int
	ReturnStack int
	BTCEntries  int

	// Penalties in cycles.
	LoadDelay     int // extra cycles on a dependent use of a load that hit L1
	ShortIntDelay int // extra cycle on a dependent use of a shift/byte op
	LongOpDelay   int // dependent use of a multiply/float result
	Mispredict    int
	TLBMiss       int
	L1Miss        int // L1 miss, L2 hit
	L2Miss        int // additional cycles when L2 also misses
	BTCBubble     int // taken branch with a branch-target-cache miss
}

// Validate reports why cfg cannot be simulated, or nil if it can: the
// issue width and every table size must be at least 1, each cache must
// have a simulatable geometry, and the page size must be a power of two.
func (cfg Config) Validate() error {
	if cfg.Width < 1 {
		return fmt.Errorf("alphasim: issue width %d is below 1", cfg.Width)
	}
	for _, c := range []CacheConfig{cfg.ICache, cfg.DCache, cfg.L2} {
		if err := c.validate(); err != nil {
			return err
		}
	}
	if cfg.PageSize == 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return fmt.Errorf("alphasim: page size %d is not a power of two", cfg.PageSize)
	}
	for _, t := range []struct {
		name string
		n    int
	}{
		{"iTLB", cfg.ITLBEntries}, {"dTLB", cfg.DTLBEntries},
		{"BHT", cfg.BHTEntries}, {"BTC", cfg.BTCEntries}, {"return stack", cfg.ReturnStack},
	} {
		if t.n < 1 {
			return fmt.Errorf("alphasim: %s has %d entries, want at least 1", t.name, t.n)
		}
	}
	return nil
}

// DefaultConfig returns the Table 3 machine.
func DefaultConfig() Config {
	return Config{
		Width:  2,
		ICache: CacheConfig{Name: "L1I", Size: 8 << 10, LineSize: 32, Assoc: 1},
		DCache: CacheConfig{Name: "L1D", Size: 8 << 10, LineSize: 32, Assoc: 1},
		L2:     CacheConfig{Name: "L2", Size: 512 << 10, LineSize: 32, Assoc: 1},

		PageSize:    8 << 10,
		ITLBEntries: 8,
		DTLBEntries: 32,

		BHTEntries:  256,
		ReturnStack: 12,
		BTCEntries:  32,

		LoadDelay:     2, // 3-cycle latency = 2 stall cycles on a dependent use
		ShortIntDelay: 1, // 2-cycle latency
		LongOpDelay:   8,
		Mispredict:    4,
		TLBMiss:       40,
		L1Miss:        6,
		L2Miss:        24, // 6 + 24 = 30 cycles to memory, as in Table 3
		BTCBubble:     1,
	}
}

// Stats is the outcome of a simulated run, in the paper's issue-slot terms.
// The JSON tags are the manifest schema (docs/OBSERVABILITY.md); Stalls
// serializes as an array indexed by Cause (see causeNames for the order).
type Stats struct {
	Instructions uint64            `json:"instructions"`
	Cycles       uint64            `json:"cycles"`
	Stalls       [NumCauses]uint64 `json:"stalls"` // stall cycles per cause

	IFetches    uint64 `json:"ifetches"`
	IMisses1    uint64 `json:"imisses1"`
	IMisses2    uint64 `json:"imisses2"`
	DAccesses   uint64 `json:"daccesses"`
	DMisses1    uint64 `json:"dmisses1"`
	DMisses2    uint64 `json:"dmisses2"`
	ITLBMisses  uint64 `json:"itlb_misses"`
	DTLBMisses  uint64 `json:"dtlb_misses"`
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
}

// IssueSlots returns the total issue slots offered (width × cycles).
func (s Stats) IssueSlots(width int) uint64 { return uint64(width) * s.Cycles }

// BusyFrac returns the fraction of issue slots filled ("processor busy").
func (s Stats) BusyFrac(width int) float64 {
	slots := s.IssueSlots(width)
	if slots == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(slots)
}

// StallFrac returns the fraction of issue slots lost to one cause.
func (s Stats) StallFrac(c Cause, width int) float64 {
	slots := s.IssueSlots(width)
	if slots == 0 {
		return 0
	}
	return float64(uint64(width)*s.Stalls[c]) / float64(slots)
}

// OtherFrac returns the unfilled-slot fraction not covered by the named
// causes: CauseOther stalls plus dual-issue slack.  It is the residual, so
// busy + named stall fractions + OtherFrac account for every issue slot.
func (s Stats) OtherFrac(width int) float64 {
	f := 1 - s.BusyFrac(width)
	for c := 0; c < NumCauses; c++ {
		if Cause(c) != CauseOther {
			f -= s.StallFrac(Cause(c), width)
		}
	}
	if f < 0 {
		f = 0
	}
	return f
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IMissPer100 returns instruction-cache misses per 100 instructions, the
// metric of Figure 4.
func (s Stats) IMissPer100() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 100 * float64(s.IMisses1) / float64(s.Instructions)
}

// MissObserver receives cache-miss notifications from the pipeline so each
// miss can be attributed back to the interpreter routine and virtual
// command that caused it (the profiling layer's join).  A call carries the
// index of the missing event within the block being delivered (0 for a
// per-event Emit), and arrives synchronously inside EmitBlock or Emit, so
// a sink ahead of the pipeline in the fan can resolve the index against
// the same block's segment marks.
type MissObserver interface {
	IMiss(i int)
	DMiss(i int)
}

// Pipeline simulates the configured machine over an event stream.  It
// implements trace.Sink and trace.BlockSink; with a MissObserver set, it
// reports each cache miss by the missing event's index in the block being
// delivered.
type Pipeline struct {
	cfg    Config
	icache *Cache
	dcache *Cache
	l2     *Cache
	itlb   *TLB
	dtlb   *TLB
	pred   *Predictor

	stats    Stats
	prevKind trace.Kind
	prevHit  bool // previous load hit L1
	pending  uint64

	// Same-line filters: the last instruction line fetched and the last
	// data line accessed, stored +1 so that 0 means none.  A line here is
	// the smaller of an L1 line and a page, so a repeat is resident in
	// both the L1 and the TLB of its side, and already their most recent
	// entry there.
	iShift, dShift uint
	iLine, dLine   uint64

	missObs MissObserver
}

// SetMissObserver registers o to receive cache-miss notifications; nil
// disables them (the default).
func (p *Pipeline) SetMissObserver(o MissObserver) { p.missObs = o }

// New builds a pipeline for cfg.  It panics with cfg.Validate's message
// if the machine cannot be simulated.
func New(cfg Config) *Pipeline {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	p := &Pipeline{
		cfg:    cfg,
		icache: NewCache(cfg.ICache),
		dcache: NewCache(cfg.DCache),
		l2:     NewCache(cfg.L2),
		itlb:   NewTLB(cfg.ITLBEntries, cfg.PageSize),
		dtlb:   NewTLB(cfg.DTLBEntries, cfg.PageSize),
		pred:   NewPredictor(cfg.BHTEntries, cfg.ReturnStack, cfg.BTCEntries),
	}
	p.iShift = min(p.icache.lineShift, p.itlb.pageShift)
	p.dShift = min(p.dcache.lineShift, p.dtlb.pageShift)
	return p
}

// Config returns the simulated machine description.
func (p *Pipeline) Config() Config { return p.cfg }

func (p *Pipeline) stall(c Cause, cycles int) {
	p.stats.Stalls[c] += uint64(cycles)
	p.stats.Cycles += uint64(cycles)
}

// issue charges the base issue of n instructions: `Width` instructions
// retire per cycle when nothing stalls, and the cycle is charged to the
// first instruction of each group, so a trailing partial group still owns
// a cycle.  pending counts the instructions of the open group.
func (p *Pipeline) issue(n uint64) {
	w := uint64(p.cfg.Width)
	p.stats.Instructions += n
	p.stats.IFetches += n
	p.stats.Cycles += (p.pending+n+w-1)/w - (p.pending+w-1)/w
	p.pending = (p.pending + n) % w
}

// Emit processes one native instruction.
func (p *Pipeline) Emit(e trace.Event) {
	pc, addr, kind, flags := [1]uint32{e.PC}, [1]uint32{e.Addr}, [1]trace.Kind{e.Kind}, [1]trace.Flags{e.Flags}
	p.run(pc[:], addr[:], kind[:], flags[:])
}

// EmitBlock processes a whole event batch.
func (p *Pipeline) EmitBlock(b *trace.Block) {
	p.run(b.PC[:b.N], b.Addr[:b.N], b.Kind[:b.N], b.Flags[:b.N])
}

// run simulates a run of native instructions given as event columns; the
// index of an event in them is its index in the delivery.  Base issue is
// charged in closed form for the whole run, so the loop does only fetch,
// latency, memory and control.
func (p *Pipeline) run(pcs, addrs []uint32, kinds []trace.Kind, flags []trace.Flags) {
	p.issue(uint64(len(pcs)))
	addrs, kinds, flags = addrs[:len(pcs)], kinds[:len(pcs)], flags[:len(pcs)]
	st := &p.stats
	for i, pc := range pcs {
		// Instruction fetch: only a fetch from a new line consults the
		// iTLB and L1I; a repeat would hit both and change no LRU order.
		if line := uint64(pc>>p.iShift) + 1; line != p.iLine {
			p.iLine = line
			p.fetch(pc, i)
		}

		// Result-latency stalls: charged when this instruction consumes
		// the previous instruction's result.
		if flags[i]&trace.FlagDep != 0 {
			switch p.prevKind {
			case trace.Load:
				if p.prevHit {
					p.stall(CauseLoadDelay, p.cfg.LoadDelay)
				}
			case trace.ShortInt:
				p.stall(CauseShortInt, p.cfg.ShortIntDelay)
			case trace.Mul, trace.Float:
				p.stall(CauseOther, p.cfg.LongOpDelay)
			}
		}

		kind := kinds[i]
		switch kind {
		case trace.Load, trace.Store:
			st.DAccesses++
			p.prevHit = true
			if line := uint64(addrs[i]>>p.dShift) + 1; line != p.dLine {
				p.dLine = line
				p.prevHit = p.data(addrs[i], i)
			}
		case trace.Branch:
			st.Branches++
			mis, btcMiss := p.pred.Cond(pc, addrs[i], flags[i]&trace.FlagTaken != 0)
			if mis {
				st.Mispredicts++
				p.stall(CauseMispredict, p.cfg.Mispredict)
			} else if btcMiss {
				p.stall(CauseOther, p.cfg.BTCBubble)
			}
		case trace.Jump:
			if flags[i]&trace.FlagCall != 0 {
				p.pred.Call(pc + 4)
			}
			p.stall(CauseOther, p.cfg.BTCBubble)
		case trace.Return:
			if p.pred.Ret(addrs[i]) {
				st.Mispredicts++
				p.stall(CauseMispredict, p.cfg.Mispredict)
			}
		}
		p.prevKind = kind
	}
}

// fetch runs an instruction fetch from a new line through the iTLB, L1I
// and, on an L1 miss, the L2.
func (p *Pipeline) fetch(pc uint32, i int) {
	st := &p.stats
	if !p.itlb.Access(pc) {
		st.ITLBMisses++
		p.stall(CauseITLB, p.cfg.TLBMiss)
	}
	if p.icache.Access(pc) {
		return
	}
	st.IMisses1++
	p.stall(CauseIMiss, p.cfg.L1Miss)
	if !p.l2.Access(pc) {
		st.IMisses2++
		p.stall(CauseIMiss, p.cfg.L2Miss)
	}
	if p.missObs != nil {
		p.missObs.IMiss(i)
	}
}

// data runs a data access to a new line through the dTLB, L1D and, on an
// L1 miss, the L2, and reports whether L1D hit.
func (p *Pipeline) data(addr uint32, i int) bool {
	st := &p.stats
	if !p.dtlb.Access(addr) {
		st.DTLBMisses++
		p.stall(CauseDTLB, p.cfg.TLBMiss)
	}
	if p.dcache.Access(addr) {
		return true
	}
	st.DMisses1++
	p.stall(CauseDMiss, p.cfg.L1Miss)
	if !p.l2.Access(addr) {
		st.DMisses2++
		p.stall(CauseDMiss, p.cfg.L2Miss)
	}
	if p.missObs != nil {
		p.missObs.DMiss(i)
	}
	return false
}

// Stats returns the accumulated statistics.
func (p *Pipeline) Stats() Stats { return p.stats }

// Run drains events from a replayable generator into a fresh pipeline and
// returns its stats.
func Run(cfg Config, generate func(sink trace.Sink)) Stats {
	p := New(cfg)
	generate(p)
	return p.Stats()
}
