package alphasim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/trace"
	"interplab/internal/vfs"
	"interplab/internal/workloads"
)

// naiveCache is the plainest true-LRU set-associative cache: every access,
// of any associativity, scans its set and stamps an age.
type naiveCache struct {
	lineSize, sets, assoc int
	tags                  []uint64 // line+1; 0 is empty
	age                   []uint64
	clock                 uint64
	accesses, misses      uint64
}

func newNaiveCache(cfg alphasim.CacheConfig) *naiveCache {
	n := cfg.Sets() * cfg.Assoc
	return &naiveCache{lineSize: cfg.LineSize, sets: cfg.Sets(), assoc: cfg.Assoc,
		tags: make([]uint64, n), age: make([]uint64, n)}
}

func (c *naiveCache) access(addr uint32) bool {
	c.accesses++
	c.clock++
	line := uint64(addr) / uint64(c.lineSize)
	set := int(line%uint64(c.sets)) * c.assoc
	victim := set
	for w := set; w < set+c.assoc; w++ {
		if c.tags[w] == line+1 {
			c.age[w] = c.clock
			return true
		}
		if c.age[w] < c.age[victim] {
			victim = w
		}
	}
	c.misses++
	c.tags[victim] = line + 1
	c.age[victim] = c.clock
	return false
}

// naiveTLB is a fully associative LRU TLB that scans on every access.
type naiveTLB struct {
	pageSize         uint64
	pages, age       []uint64
	clock            uint64
	accesses, misses uint64
}

func newNaiveTLB(entries int, pageSize uint32) *naiveTLB {
	return &naiveTLB{pageSize: uint64(pageSize), pages: make([]uint64, entries), age: make([]uint64, entries)}
}

func (t *naiveTLB) access(addr uint32) bool {
	t.accesses++
	t.clock++
	page := uint64(addr)/t.pageSize + 1
	victim := 0
	for i := range t.pages {
		if t.pages[i] == page {
			t.age[i] = t.clock
			return true
		}
		if t.age[i] < t.age[victim] {
			victim = i
		}
	}
	t.misses++
	t.pages[victim] = page
	t.age[victim] = t.clock
	return false
}

// missLog records a MissObserver's calls in order.
type missLog struct{ imiss, dmiss []int }

func (l *missLog) IMiss(i int) { l.imiss = append(l.imiss, i) }
func (l *missLog) DMiss(i int) { l.dmiss = append(l.dmiss, i) }

// refPipeline is the unfiltered machine model: every instruction issues,
// fetches through the iTLB and L1I, and every load or store goes through
// the dTLB and L1D, one event at a time.
type refPipeline struct {
	cfg                alphasim.Config
	icache, dcache, l2 *naiveCache
	itlb, dtlb         *naiveTLB
	pred               *alphasim.Predictor
	st                 alphasim.Stats
	prevKind           trace.Kind
	prevHit            bool
	pending            int
	log                missLog
}

func newRefPipeline(cfg alphasim.Config) *refPipeline {
	return &refPipeline{
		cfg:    cfg,
		icache: newNaiveCache(cfg.ICache),
		dcache: newNaiveCache(cfg.DCache),
		l2:     newNaiveCache(cfg.L2),
		itlb:   newNaiveTLB(cfg.ITLBEntries, cfg.PageSize),
		dtlb:   newNaiveTLB(cfg.DTLBEntries, cfg.PageSize),
		pred:   alphasim.NewPredictor(cfg.BHTEntries, cfg.ReturnStack, cfg.BTCEntries),
	}
}

func (p *refPipeline) stall(c alphasim.Cause, cycles int) {
	p.st.Stalls[c] += uint64(cycles)
	p.st.Cycles += uint64(cycles)
}

// step simulates the event at index i of its delivery.
func (p *refPipeline) step(e trace.Event, i int) {
	st := &p.st
	st.Instructions++
	p.pending++
	if p.pending == 1 {
		st.Cycles++
	}
	if p.pending >= p.cfg.Width {
		p.pending = 0
	}

	st.IFetches++
	if !p.itlb.access(e.PC) {
		st.ITLBMisses++
		p.stall(alphasim.CauseITLB, p.cfg.TLBMiss)
	}
	if !p.icache.access(e.PC) {
		st.IMisses1++
		p.stall(alphasim.CauseIMiss, p.cfg.L1Miss)
		if !p.l2.access(e.PC) {
			st.IMisses2++
			p.stall(alphasim.CauseIMiss, p.cfg.L2Miss)
		}
		p.log.IMiss(i)
	}

	if e.Dep() {
		switch p.prevKind {
		case trace.Load:
			if p.prevHit {
				p.stall(alphasim.CauseLoadDelay, p.cfg.LoadDelay)
			}
		case trace.ShortInt:
			p.stall(alphasim.CauseShortInt, p.cfg.ShortIntDelay)
		case trace.Mul, trace.Float:
			p.stall(alphasim.CauseOther, p.cfg.LongOpDelay)
		}
	}

	switch e.Kind {
	case trace.Load, trace.Store:
		st.DAccesses++
		if !p.dtlb.access(e.Addr) {
			st.DTLBMisses++
			p.stall(alphasim.CauseDTLB, p.cfg.TLBMiss)
		}
		p.prevHit = p.dcache.access(e.Addr)
		if !p.prevHit {
			st.DMisses1++
			p.stall(alphasim.CauseDMiss, p.cfg.L1Miss)
			if !p.l2.access(e.Addr) {
				st.DMisses2++
				p.stall(alphasim.CauseDMiss, p.cfg.L2Miss)
			}
			p.log.DMiss(i)
		}
	case trace.Branch:
		st.Branches++
		mis, btcMiss := p.pred.Cond(e.PC, e.Addr, e.Taken())
		if mis {
			st.Mispredicts++
			p.stall(alphasim.CauseMispredict, p.cfg.Mispredict)
		} else if btcMiss {
			p.stall(alphasim.CauseOther, p.cfg.BTCBubble)
		}
	case trace.Jump:
		if e.Call() {
			p.pred.Call(e.PC + 4)
		}
		p.stall(alphasim.CauseOther, p.cfg.BTCBubble)
	case trace.Return:
		if p.pred.Ret(e.Addr) {
			st.Mispredicts++
			p.stall(alphasim.CauseMispredict, p.cfg.Mispredict)
		}
	}
	p.prevKind = e.Kind
}

// recordEvents runs prog under the probe and returns its native event
// stream.
func recordEvents(t testing.TB, prog core.Program) []trace.Event {
	t.Helper()
	rec := &trace.Recorder{}
	img := atom.NewImage()
	probe := atom.NewProbe(img, rec)
	osys := vfs.New()
	osys.Instrument(img, probe)
	if err := prog.Run(&core.Ctx{Image: img, Probe: probe, Sink: rec, OS: osys}); err != nil {
		t.Fatal(err)
	}
	probe.FlushEvents()
	return rec.Events
}

// syntheticEvents returns n events with loop-like locality in both
// streams: straight-line runs through routines, data in a hot region with
// repeats and occasional far accesses, and every kind and flag mixed.
func syntheticEvents(rng *rand.Rand, n int, codeKB, dataKB int) []trace.Event {
	routines := make([]uint32, 64)
	for i := range routines {
		routines[i] = uint32(rng.Intn(codeKB<<10)) &^ 3
	}
	evs := make([]trace.Event, 0, n)
	pc, addr := routines[0], uint32(0)
	for len(evs) < n {
		for run := 1 + rng.Intn(24); run > 0 && len(evs) < n; run-- {
			e := trace.Event{PC: pc, Kind: trace.Kind(rng.Intn(trace.NumKinds)), Flags: trace.Flags(rng.Intn(8))}
			switch r := rng.Intn(8); {
			case r < 4: // same or next word
				addr += uint32(rng.Intn(2)) * 4
			case r < 7:
				addr = uint32(rng.Intn(4<<10)) &^ 3
			default:
				addr = uint32(rng.Intn(dataKB<<10)) &^ 3
			}
			e.Addr = addr
			evs = append(evs, e)
			pc += 4
		}
		pc = routines[rng.Intn(len(routines))]
		if rng.Intn(16) == 0 {
			pc = uint32(rng.Intn(codeKB<<10)) &^ 3
		}
	}
	return evs
}

// pingPong alternates two fetch and two data addresses that map to the
// same direct-mapped L1 set, with same-line repeats between the switches.
func pingPong(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		far := uint32(i/3%2) << 13 // 8 KB apart: the same L1 set
		evs[i] = trace.Event{PC: 0x10000 + far + uint32(i%3)*4, Kind: trace.Load, Addr: 0x200000 + far + uint32(i%3)*8}
		if i%5 == 0 {
			evs[i].Kind, evs[i].Flags = trace.Int, trace.FlagDep
		}
	}
	return evs
}

// pageRoundRobin walks instruction pages and data pages round-robin, more
// of each than the TLBs hold, a few same-page accesses per visit.
func pageRoundRobin(n, iPages, dPages int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		visit := i / 4
		evs[i] = trace.Event{
			PC:   uint32(visit%iPages)<<13 + uint32(i%4)*4,
			Kind: trace.Store,
			Addr: 0x1000000 + uint32(visit%dPages)<<13 + uint32(i%4)*64,
		}
	}
	return evs
}

// feedsPipe deliver a stream to the pipeline; each returns the length of
// every delivery, so the reference can index misses the same way.
var feedsPipe = []struct {
	name string
	feed func(p *alphasim.Pipeline, evs []trace.Event, rng *rand.Rand) []int
}{
	{"emit", func(p *alphasim.Pipeline, evs []trace.Event, _ *rand.Rand) []int {
		cuts := make([]int, len(evs))
		for i, e := range evs {
			p.Emit(e)
			cuts[i] = 1
		}
		return cuts
	}},
	{"blocks", func(p *alphasim.Pipeline, evs []trace.Event, _ *rand.Rand) []int {
		return feedPipeBlocks(p, evs, func() int { return trace.BlockCap })
	}},
	{"ragged", func(p *alphasim.Pipeline, evs []trace.Event, rng *rand.Rand) []int {
		return feedPipeBlocks(p, evs, func() int { return 1 + rng.Intn(97) })
	}},
}

func feedPipeBlocks(p *alphasim.Pipeline, evs []trace.Event, size func() int) []int {
	var cuts []int
	var b trace.Block
	for k := 0; k < len(evs); {
		n := min(size(), len(evs)-k)
		b.Reset()
		for _, e := range evs[k : k+n] {
			b.Append(e)
		}
		p.EmitBlock(&b)
		cuts = append(cuts, n)
		k += n
	}
	return cuts
}

// TestPipelineMatchesReferenceModel is the machine model's differential
// wall: on recorded and synthetic streams, through every delivery path,
// the filtered Pipeline must produce exactly the Stats and the ordered
// miss indices of the unfiltered reference over naive LRU structures.
func TestPipelineMatchesReferenceModel(t *testing.T) {
	def := alphasim.DefaultConfig()
	withCfg := func(f func(*alphasim.Config)) alphasim.Config {
		c := alphasim.DefaultConfig()
		f(&c)
		return c
	}
	bigLines := withCfg(func(c *alphasim.Config) {
		c.PageSize = 1 << 10
		c.ICache = alphasim.CacheConfig{Name: "L1I", Size: 16 << 10, LineSize: 2 << 10, Assoc: 1}
		c.DCache = alphasim.CacheConfig{Name: "L1D", Size: 16 << 10, LineSize: 4 << 10, Assoc: 2}
	})
	assoc := func(ways, width int) alphasim.Config {
		return withCfg(func(c *alphasim.Config) {
			c.Width = width
			c.ICache.Assoc, c.DCache.Assoc = ways, ways
			c.L2.Assoc = ways
		})
	}
	rng := rand.New(rand.NewSource(7))
	synth := syntheticEvents(rng, 150_000, 64, 256)
	cases := []struct {
		name string
		cfg  alphasim.Config
		evs  []trace.Event
	}{
		{"MIPSI/des", def, recordEvents(t, workloads.DESMIPSI(1))},
		{"Tcl/des", def, recordEvents(t, workloads.DESTcl(1))},
		{"ping-pong", def, pingPong(20_000)},
		{"ping-pong/2way", assoc(2, 2), pingPong(20_000)},
		{"12+40 pages", def, pageRoundRobin(20_000, 12, 40)},
		{"line>page", bigLines, synth},
		{"synthetic", def, synth},
		{"synthetic/2way/width1", assoc(2, 1), synth},
		{"synthetic/4way/width4", assoc(4, 4), synth},
		{"line>page/width4", withCfg(func(c *alphasim.Config) { *c = bigLines; c.Width = 4 }), pageRoundRobin(20_000, 12, 40)},
	}
	for _, tc := range cases {
		for _, f := range feedsPipe {
			t.Run(fmt.Sprintf("%s/%s", tc.name, f.name), func(t *testing.T) {
				p := alphasim.New(tc.cfg)
				var got missLog
				p.SetMissObserver(&got)
				cuts := f.feed(p, tc.evs, rand.New(rand.NewSource(3)))
				ref := runReference(tc.cfg, tc.evs, cuts)
				if p.Stats() != ref.st {
					t.Errorf("stats differ from the reference:\n got %+v\nwant %+v", p.Stats(), ref.st)
				}
				if ref.st.IMisses1 == 0 || ref.st.DMisses1 == 0 || ref.st.ITLBMisses == 0 || ref.st.DTLBMisses == 0 {
					t.Errorf("stream exercises too little of the machine: %+v", ref.st)
				}
				for _, side := range []struct {
					name      string
					got, want []int
				}{{"imiss", got.imiss, ref.log.imiss}, {"dmiss", got.dmiss, ref.log.dmiss}} {
					if len(side.got) != len(side.want) {
						t.Fatalf("%d %s calls, reference %d", len(side.got), side.name, len(side.want))
					}
					for k := range side.want {
						if side.got[k] != side.want[k] {
							t.Fatalf("%s call %d at index %d, reference %d", side.name, k, side.got[k], side.want[k])
						}
					}
				}
			})
		}
	}
}

// runReference runs the reference model over evs delivered in cuts-sized
// pieces, so its miss log carries in-delivery indices.
func runReference(cfg alphasim.Config, evs []trace.Event, cuts []int) *refPipeline {
	ref := newRefPipeline(cfg)
	k := 0
	for _, n := range cuts {
		for i, e := range evs[k : k+n] {
			ref.step(e, i)
		}
		k += n
	}
	return ref
}

// localStream returns n addresses with locality across a footprint: runs
// of nearby addresses, revisits of a hot set, and far jumps.
func localStream(rng *rand.Rand, n int, footprint uint32) []uint32 {
	hot := make([]uint32, 32)
	for i := range hot {
		hot[i] = uint32(rng.Int63n(int64(footprint)))
	}
	out := make([]uint32, 0, n)
	a := hot[0]
	for len(out) < n {
		for run := rng.Intn(16); run > 0 && len(out) < n; run-- {
			out = append(out, a)
			a += uint32(rng.Intn(3)) * 4
		}
		if rng.Intn(6) == 0 {
			a = uint32(rng.Int63n(int64(footprint)))
		} else {
			a = hot[rng.Intn(len(hot))]
		}
	}
	return out
}

// TestCacheMatchesNaiveLRU: every access of Cache, direct-mapped or
// set-associative, must hit or miss exactly as a naive LRU cache does.
func TestCacheMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []alphasim.CacheConfig{
		{Size: 8 << 10, LineSize: 32, Assoc: 1},
		{Size: 8 << 10, LineSize: 32, Assoc: 2},
		{Size: 4 << 10, LineSize: 16, Assoc: 4},
		{Size: 2 << 10, LineSize: 64, Assoc: 8},
		{Size: 512, LineSize: 64, Assoc: 8}, // one set: fully associative
		{Size: 512 << 10, LineSize: 32, Assoc: 1},
	} {
		t.Run(fmt.Sprintf("%dB/%dway/%dB", cfg.Size, cfg.Assoc, cfg.LineSize), func(t *testing.T) {
			c, ref := alphasim.NewCache(cfg), newNaiveCache(cfg)
			for k, a := range localStream(rng, 100_000, uint32(cfg.Size*4)) {
				if got, want := c.Access(a), ref.access(a); got != want {
					t.Fatalf("access %d (%#x): hit=%v, naive LRU %v", k, a, got, want)
				}
			}
			if c.Accesses != ref.accesses || c.Misses != ref.misses {
				t.Errorf("counts %d/%d, naive LRU %d/%d", c.Misses, c.Accesses, ref.misses, ref.accesses)
			}
		})
	}
}

// TestTLBMatchesNaiveLRU: the MRU shortcut must not change any hit, miss
// or eviction of the TLB.
func TestTLBMatchesNaiveLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		entries  int
		pageSize uint32
	}{{1, 8 << 10}, {2, 4 << 10}, {8, 8 << 10}, {32, 8 << 10}, {8, 64}} {
		t.Run(fmt.Sprintf("%d/%dB", tc.entries, tc.pageSize), func(t *testing.T) {
			tlb, ref := alphasim.NewTLB(tc.entries, tc.pageSize), newNaiveTLB(tc.entries, tc.pageSize)
			footprint := uint32(tc.entries) * tc.pageSize * 3
			for k, a := range localStream(rng, 100_000, footprint) {
				if got, want := tlb.Access(a), ref.access(a); got != want {
					t.Fatalf("access %d (%#x): hit=%v, naive LRU %v", k, a, got, want)
				}
			}
			if tlb.Accesses != ref.accesses || tlb.Misses != ref.misses {
				t.Errorf("counts %d/%d, naive LRU %d/%d", tlb.Misses, tlb.Accesses, ref.misses, ref.accesses)
			}
		})
	}
}
