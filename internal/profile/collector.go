package profile

import (
	"sort"

	"interplab/internal/atom"
	"interplab/internal/trace"
)

// Frame-name vocabulary.  Op frames are "op:" + the interned virtual-command
// name; phase frames are "phase:" + atom.Phase.String(); FrameDispatch roots
// instructions issued between commands (the dispatch loop) and FrameStartup
// roots one-time precompilation.
const (
	FrameDispatch = "dispatch"
	FrameStartup  = "startup"
	OpPrefix      = "op:"
	PhasePrefix   = "phase:"
)

// PhaseFrame returns the stack frame name for a phase.
func PhaseFrame(ph atom.Phase) string { return PhasePrefix + ph.String() }

// node is one vertex of the collector's stack trie; its values are the
// *self* counts of the exact stack it terminates.
type node struct {
	frame    string
	parent   *node
	children map[string]*node
	values   [NumSampleTypes]int64
}

func (n *node) child(frame string) *node {
	c, ok := n.children[frame]
	if !ok {
		c = &node{frame: frame, parent: n}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[frame] = c
	}
	return c
}

// Collector folds a native-instruction stream into attribution samples.  It
// implements trace.Sink (put it on the probe's fan-out *before* any
// simulating sink) and alphasim.MissObserver (register it on the pipeline
// to join cache misses back to the issuing routine and opcode).  Both use
// the probe's segment marks: EmitBlock charges each segment to its tag and
// keeps the block's marks, so the pipeline's misses for that block, which
// arrive by event index during the same delivery, resolve to the segment
// that issued them.
//
// Per-event cost is one version check plus a handful of increments; the
// stack is re-resolved only when the probe reports an attribution change
// (command begin/end, phase switch, call/return, routine switch), and even
// then a memo on the probe's compact attribution state usually turns the
// resolve into an array load — interpreters cycle through the same few
// (op, phase, routine) states millions of times, so the common bump is an
// index into the dense op×phase node table cached for the current
// (frames, routine) context.
type Collector struct {
	probe *atom.Probe
	root  node

	lastVersion uint64
	lastNode    *node
	stackBuf    []*atom.Routine
	addrs       map[string]uint64

	// Resolved-node memo, two-level: the (frames, routine) context changes
	// only on call/return/routine switch, so cur caches its dense
	// (op+1)×phase node table and the far more frequent op/phase bumps
	// reduce to an array index.
	ctxFrames uint64
	ctxCur    *atom.Routine
	ctxTab    []*node
	ctxs      map[ctxKey][]*node

	// Miss join: the marks of the block just attributed, and a forward
	// cursor into them — misses arrive in stream order, so each resolves
	// by advancing past the segments that end at or before its index.
	marks []trace.SegMark
	seg   int
}

// ctxKey is the slow-changing half of the probe's attribution state: the
// identity of the pushed frames plus the executing routine.  Together with
// the open command and phase it fully determines the sample stack resolve
// builds.
type ctxKey struct {
	frames uint64
	cur    *atom.Routine
}

// NewCollector returns a collector; Bind attaches it to the probe whose
// stream it will observe.
func NewCollector() *Collector {
	return &Collector{
		addrs: make(map[string]uint64),
		ctxs:  make(map[ctxKey][]*node),
	}
}

// Bind attaches the probe whose attribution state keys the samples.  Must
// be called before the first event arrives.  Binding registers the
// collector's boundary callback: at every attribution change the probe
// records the outgoing state's sample node as a segment mark in its
// buffered block, so blocks stay full and EmitBlock (and the miss join)
// resolve each segment from its tag.
func (c *Collector) Bind(p *atom.Probe) {
	c.probe = p
	c.lastNode = nil
	p.MarkAttrBoundaries(c.boundaryTag)
}

// boundaryTag is the probe's attribution-boundary callback: the sample
// node for the outgoing state, recorded as the closing segment's tag.
func (c *Collector) boundaryTag() any { return c.cur() }

// resolve walks the trie to the node for the probe's current attribution
// state.
func (c *Collector) resolve() *node {
	n := &c.root
	if op, ok := c.probe.CurrentOp(); ok {
		n = n.child(OpPrefix + op)
	} else if c.probe.CurrentPhase() == atom.PhaseStartup {
		n = n.child(FrameStartup)
	} else {
		n = n.child(FrameDispatch)
	}
	n = n.child(PhaseFrame(c.probe.CurrentPhase()))
	c.stackBuf = c.probe.CallStack(c.stackBuf[:0])
	for _, r := range c.stackBuf {
		n = n.child(r.Name)
		if _, ok := c.addrs[r.Name]; !ok {
			c.addrs[r.Name] = uint64(r.Base)
		}
	}
	return n
}

// cur returns the sample node for the probe's current state, re-resolving
// only when the probe's attribution version moved, and then only on the
// first visit to a given attribution state — repeats hit the memo.
func (c *Collector) cur() *node {
	if c.probe == nil {
		return &c.root
	}
	if v := c.probe.AttrVersion(); c.lastNode == nil || v != c.lastVersion {
		c.lastVersion = v
		frames, curR := c.probe.FramesID(), c.probe.CurrentRoutine()
		if frames != c.ctxFrames || curR != c.ctxCur || c.ctxTab == nil {
			k := ctxKey{frames: frames, cur: curR}
			c.ctxFrames, c.ctxCur, c.ctxTab = frames, curR, c.ctxs[k]
		}
		// CurrentOpID is -1 between commands, hence the +1 bias.
		idx := (int(c.probe.CurrentOpID())+1)*atom.NumPhases + int(c.probe.CurrentPhase())
		var n *node
		if idx < len(c.ctxTab) {
			n = c.ctxTab[idx]
		}
		if n == nil {
			n = c.resolve()
			if idx >= len(c.ctxTab) {
				tab := make([]*node, idx+1)
				copy(tab, c.ctxTab)
				c.ctxTab = tab
				c.ctxs[ctxKey{frames: frames, cur: curR}] = tab
			}
			c.ctxTab[idx] = n
		}
		c.lastNode = n
	}
	return c.lastNode
}

// Emit attributes one native instruction.  A per-event delivery carries no
// marks, so misses reported for it resolve to the current node.
func (c *Collector) Emit(e trace.Event) {
	c.marks = nil
	n := c.cur()
	n.values[SampleInstructions]++
	switch e.Kind {
	case trace.Load:
		n.values[SampleLoads]++
	case trace.Store:
		n.values[SampleStores]++
	case trace.Branch:
		n.values[SampleBranches]++
	}
}

// EmitBlock attributes a whole batch.  In the marking mode Bind sets up,
// the block carries one tagged boundary per attribution change and each
// tag IS the segment's resolved sample node, so attribution costs one
// pointer read per segment plus a Kind-column scan.  Events after the last
// mark belong to the probe's still-current state.  The marks are kept for
// the miss join; the block is valid, and they with it, until the fan's
// delivery of this block returns.
func (c *Collector) EmitBlock(b *trace.Block) {
	c.marks, c.seg = b.Marks, 0
	lo := 0
	for _, m := range b.Marks {
		c.accountSeg(m.Tag.(*node), b, lo, m.End)
		lo = m.End
	}
	c.accountSeg(c.cur(), b, lo, b.N)
}

// missNode resolves the event at index i of the block being delivered to
// the node of its segment.  Misses past the last mark, in a mark-free
// block, or after a per-event Emit belong to the current node.
func (c *Collector) missNode(i int) *node {
	for c.seg < len(c.marks) && c.marks[c.seg].End <= i {
		c.seg++
	}
	if c.seg < len(c.marks) {
		return c.marks[c.seg].Tag.(*node)
	}
	return c.cur()
}

// accountSeg charges one attribution-uniform event range of b to n.  The
// kind tally goes through a dense count table rather than a per-event
// switch: Kind values are small, and the table walk is branch-free.
func (c *Collector) accountSeg(n *node, b *trace.Block, lo, hi int) {
	if hi <= lo {
		return
	}
	n.values[SampleInstructions] += int64(hi - lo)
	var cnt [trace.NumKinds]int64
	for _, k := range b.Kind[lo:hi] {
		cnt[k]++
	}
	n.values[SampleLoads] += cnt[trace.Load]
	n.values[SampleStores] += cnt[trace.Store]
	n.values[SampleBranches] += cnt[trace.Branch]
}

// IMiss attributes an instruction-cache miss on the event at index i of the
// block being delivered (alphasim.MissObserver).  The pipeline calls it
// synchronously, after the collector has attributed the same block.
func (c *Collector) IMiss(i int) { c.missNode(i).values[SampleIMiss]++ }

// DMiss attributes a data-cache miss on the event at index i of the block
// being delivered (alphasim.MissObserver).
func (c *Collector) DMiss(i int) { c.missNode(i).values[SampleDMiss]++ }

// Profile snapshots the collected samples into a finished profile labeled
// with the program id.  The collector can keep accumulating afterwards.
func (c *Collector) Profile(program string) *Profile {
	p := &Profile{Program: program, addrs: make(map[string]uint64, len(c.addrs))}
	for f, a := range c.addrs {
		p.addrs[f] = a
	}
	var stack []string
	var walk func(n *node)
	walk = func(n *node) {
		if n.frame != "" {
			stack = append(stack, n.frame)
		}
		var zero [NumSampleTypes]int64
		if n.values != zero && len(stack) > 0 {
			p.Samples = append(p.Samples, Sample{
				Stack:  append([]string(nil), stack...),
				Values: n.values,
			})
		}
		keys := make([]string, 0, len(n.children))
		for k := range n.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			walk(n.children[k])
		}
		if n.frame != "" {
			stack = stack[:len(stack)-1]
		}
	}
	walk(&c.root)
	sortSamples(p.Samples)
	return p
}
