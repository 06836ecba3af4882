package alphasim

import (
	"fmt"
	"sort"
	"strings"

	"interplab/internal/trace"
)

// SweepPoint is one (size, associativity) instruction-cache configuration in
// a Figure 4 sweep.
type SweepPoint struct {
	SizeKB int `json:"size_kb"`
	Assoc  int `json:"assoc"`

	Instructions uint64 `json:"instructions"`
	Misses       uint64 `json:"misses"`
}

// MissPer100 returns misses per 100 instructions, Figure 4's y-axis.
func (pt SweepPoint) MissPer100() float64 {
	if pt.Instructions == 0 {
		return 0
	}
	return 100 * float64(pt.Misses) / float64(pt.Instructions)
}

// Label returns a short identifier such as "16KB/2way".
func (pt SweepPoint) Label() string { return fmt.Sprintf("%dKB/%dway", pt.SizeKB, pt.Assoc) }

// ICacheSweep simulates many instruction-cache geometries simultaneously
// over a single event stream, so Figure 4 needs only one pass per workload.
// It implements trace.Sink.
//
// The counts are exact true-LRU counts, computed by stack-distance
// simulation (Mattson et al. 1970) instead of one cache per geometry:
//
//   - A fetch from the same line as the previous fetch is MRU in every
//     geometry, so it is a hit everywhere and touches no state.
//   - Every other fetch goes through one LRU stack per set for each
//     distinct set count, as deep as the largest associativity sharing
//     that count, and its depth lands in that set count's histogram.  An
//     a-way cache with S sets misses exactly when the line's depth in its
//     S-set stack is a or more.
//   - Set counts are walked smallest first.  A line's depth never grows as
//     sets are split (Hill & Smith 1989), so a line that is already MRU in
//     some set count is MRU in every larger one and the walk stops.
type ICacheSweep struct {
	// points holds the grid in point order; its counts are those loaded by
	// RestorePoints, to which Points adds everything simulated since.
	points []SweepPoint
	group  []int // points[i]'s index in stacks
	stacks []lruStacks

	lineSize  int
	lineShift uint
	last      uint32 // tag of the previous fetch's line; 0 before any fetch
	fetches   uint64
}

// lruStacks is the per-set LRU state of every geometry with one set count.
type lruStacks struct {
	mask  uint32
	depth int
	// stack holds sets×depth line tags (line number + 1, 0 = empty), MRU
	// first within each set.
	stack []uint32
	// hist[d] counts fetches found at depth d (1 ≤ d < depth); hist[depth]
	// counts fetches found nowhere in the stack.  Depth-0 hits are never
	// counted: no geometry misses on them.
	hist []uint64
}

// NewICacheSweep builds a sweep over the cross product of sizes (in KB) and
// associativities, with the given line size in bytes.  Like NewCache, it
// panics on a geometry whose line size or set count is not a power of two.
func NewICacheSweep(sizesKB, assocs []int, lineSize int) *ICacheSweep {
	s := &ICacheSweep{lineSize: lineSize}
	for s.lineShift = 0; 1<<s.lineShift < lineSize; s.lineShift++ {
	}
	depth := map[int]int{} // set count → deepest associativity
	for _, kb := range sizesKB {
		for _, a := range assocs {
			pt := SweepPoint{SizeKB: kb, Assoc: a}
			cfg := CacheConfig{Name: pt.Label(), Size: kb << 10, LineSize: lineSize, Assoc: a}
			cfg.mustSimulate()
			n := cfg.Sets()
			s.points = append(s.points, pt)
			s.group = append(s.group, n) // replaced by an index below
			depth[n] = max(depth[n], a)
		}
	}
	sets := make([]int, 0, len(depth))
	for n := range depth {
		sets = append(sets, n)
	}
	sort.Ints(sets)
	for _, n := range sets {
		s.stacks = append(s.stacks, lruStacks{
			mask:  uint32(n - 1),
			depth: depth[n],
			stack: make([]uint32, n*depth[n]),
			hist:  make([]uint64, depth[n]+1),
		})
	}
	for i, n := range s.group {
		s.group[i] = sort.SearchInts(sets, n)
	}
	return s
}

// DefaultICacheSweep returns the paper's Figure 4 grid: 8/16/32/64 KB ×
// direct-mapped/2-way/4-way, 32-byte lines.
func DefaultICacheSweep() *ICacheSweep {
	return NewICacheSweep([]int{8, 16, 32, 64}, []int{1, 2, 4}, 32)
}

// Emit accounts one instruction fetch.
func (s *ICacheSweep) Emit(e trace.Event) {
	s.fetches++
	if tag := e.PC>>s.lineShift + 1; tag != s.last {
		s.last = tag
		s.access(tag)
	}
}

// EmitBlock accounts a whole batch of fetches, streaming the block's PC
// column through the same-line filter.
func (s *ICacheSweep) EmitBlock(b *trace.Block) {
	s.fetches += uint64(b.N)
	last := s.last
	for _, pc := range b.PC[:b.N] {
		if tag := pc>>s.lineShift + 1; tag != last {
			last = tag
			s.access(tag)
		}
	}
	s.last = last
}

// access moves the line to the top of its set's stack in every set count
// where it is not already there, recording the depth it was found at.
// Sets are indexed by tag rather than line number: a fixed rotation of
// the set indices, which leaves every conflict unchanged.
func (s *ICacheSweep) access(tag uint32) {
	for i := range s.stacks {
		g := &s.stacks[i]
		base := int(tag&g.mask) * g.depth
		st := g.stack[base : base+g.depth]
		if st[0] == tag {
			return
		}
		d := 1
		for d < len(st) && st[d] != tag {
			d++
		}
		g.hist[d]++
		if d == len(st) {
			d-- // evict the LRU line
		}
		for ; d > 0; d-- {
			st[d] = st[d-1]
		}
		st[0] = tag
	}
}

// Points returns the accumulated sweep results, in grid order.
func (s *ICacheSweep) Points() []SweepPoint {
	out := make([]SweepPoint, len(s.points))
	for i, pt := range s.points {
		pt.Instructions += s.fetches
		for _, n := range s.stacks[s.group[i]].hist[pt.Assoc:] {
			pt.Misses += n
		}
		out[i] = pt
	}
	return out
}

// LineSize returns the sweep's cache line size in bytes.
func (s *ICacheSweep) LineSize() int { return s.lineSize }

// Geometry returns a canonical description of the sweep's configuration
// grid — "8KB/1way,8KB/2way,...@32B" — independent of any accumulated
// counts.  The measurement cache uses it as the sweep part of its key: two
// sweeps with equal geometry over the same program accumulate identical
// points.
func (s *ICacheSweep) Geometry() string {
	var b strings.Builder
	for i, pt := range s.points {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pt.Label())
	}
	fmt.Fprintf(&b, "@%dB", s.lineSize)
	return b.String()
}

// RestorePoints overwrites the sweep's accumulated counts with pts, e.g.
// from a cached measurement.  It reports whether pts matches the sweep's
// geometry point for point; on a mismatch the sweep is left untouched.
func (s *ICacheSweep) RestorePoints(pts []SweepPoint) bool {
	if len(pts) != len(s.points) {
		return false
	}
	for i, pt := range pts {
		if pt.SizeKB != s.points[i].SizeKB || pt.Assoc != s.points[i].Assoc {
			return false
		}
	}
	copy(s.points, pts)
	s.fetches = 0
	for i := range s.stacks {
		clear(s.stacks[i].hist)
	}
	return true
}

// Point returns the result for one geometry.
func (s *ICacheSweep) Point(sizeKB, assoc int) (SweepPoint, bool) {
	for _, pt := range s.Points() {
		if pt.SizeKB == sizeKB && pt.Assoc == assoc {
			return pt, true
		}
	}
	return SweepPoint{}, false
}
