package alphasim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheDirectMappedBasics(t *testing.T) {
	c := NewCache(CacheConfig{Size: 1 << 10, LineSize: 32, Assoc: 1})
	if c.Access(0) {
		t.Error("cold access must miss")
	}
	if !c.Access(0) {
		t.Error("repeat access must hit")
	}
	if !c.Access(31) {
		t.Error("same-line access must hit")
	}
	if c.Access(32) {
		t.Error("next-line access must miss")
	}
	// 1 KB direct-mapped: address 0 and 1024 conflict.
	if c.Access(1024) {
		t.Error("aliasing access must miss")
	}
	if c.Access(0) {
		t.Error("evicted line must miss")
	}
}

func TestCacheAssociativityRemovesConflicts(t *testing.T) {
	dm := NewCache(CacheConfig{Size: 1 << 10, LineSize: 32, Assoc: 1})
	tw := NewCache(CacheConfig{Size: 1 << 10, LineSize: 32, Assoc: 2})
	// Two conflicting lines, accessed alternately.
	for i := 0; i < 100; i++ {
		dm.Access(0)
		dm.Access(1024)
		tw.Access(0)
		tw.Access(1024)
	}
	if dm.Misses < 190 {
		t.Errorf("direct-mapped should thrash: misses = %d", dm.Misses)
	}
	if tw.Misses != 2 {
		t.Errorf("2-way should keep both lines: misses = %d", tw.Misses)
	}
}

func TestCacheLRU(t *testing.T) {
	// 2-way, one set: lines A, B, C mapping to the same set.
	c := NewCache(CacheConfig{Size: 64, LineSize: 32, Assoc: 2})
	a, b, x := uint32(0), uint32(64), uint32(128)
	c.Access(a)
	c.Access(b)
	c.Access(a) // A most recent; B is LRU
	c.Access(x) // evicts B
	if !c.Access(a) {
		t.Error("A should survive (was MRU)")
	}
	if c.Access(b) {
		t.Error("B should have been evicted (was LRU)")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// Property: any working set smaller than the cache, accessed
	// repeatedly, incurs only compulsory misses.
	f := func(seed uint8) bool {
		c := NewCache(CacheConfig{Size: 8 << 10, LineSize: 32, Assoc: 1})
		base := uint32(seed) * 8192
		lines := 100
		for pass := 0; pass < 5; pass++ {
			for i := 0; i < lines; i++ {
				c.Access(base + uint32(i)*32)
			}
		}
		return c.Misses == uint64(lines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheMissRate(t *testing.T) {
	c := NewCache(CacheConfig{Size: 8 << 10, LineSize: 32, Assoc: 1})
	if c.MissRate() != 0 {
		t.Error("idle cache must report 0 miss rate")
	}
	c.Access(0)
	c.Access(0)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("reset must clear counters")
	}
	if !c.Access(0) == false {
		t.Error("reset must clear contents")
	}
}

func TestCacheSetsGeometry(t *testing.T) {
	cfg := CacheConfig{Size: 8 << 10, LineSize: 32, Assoc: 2}
	if cfg.Sets() != 128 {
		t.Errorf("sets = %d, want 128", cfg.Sets())
	}
}

// TestUnsimulatableGeometriesPanic: a set index is a mask of the line
// number, so a geometry with a non-power-of-two line size or set count
// (8 KB/3-way has 85 sets) must be refused by name, not simulated in the
// wrong sets.
func TestUnsimulatableGeometriesPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func()
		want []string
	}{
		{"sweep 8KB/3way", func() { NewICacheSweep([]int{8}, []int{3}, 32) }, []string{`"8KB/3way"`, "85 sets"}},
		{"sweep 48B lines", func() { NewICacheSweep([]int{8}, []int{1}, 48) }, []string{"48 B lines", "line size"}},
		{"cache 3-way", func() { NewCache(CacheConfig{Name: "L1I", Size: 8 << 10, LineSize: 32, Assoc: 3}) }, []string{`"L1I"`, "85 sets"}},
		{"cache 0-way", func() { NewCache(CacheConfig{Size: 8 << 10, LineSize: 32}) }, []string{"associativity"}},
		{"cache ragged size", func() { NewCache(CacheConfig{Size: 80, LineSize: 32, Assoc: 1}) }, []string{"80 B", "size is not 2 sets"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Errorf("panic %q does not mention %q", msg, w)
					}
				}
			}()
			tc.mk()
		})
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2, 8<<10)
	if tlb.Access(0) {
		t.Error("cold TLB access must miss")
	}
	if !tlb.Access(100) {
		t.Error("same-page access must hit")
	}
	tlb.Access(8192)  // second page
	tlb.Access(16384) // third page evicts LRU (page 0)
	if tlb.Access(0) {
		t.Error("evicted page must miss")
	}
	if !tlb.Access(16384 + 4) {
		t.Error("recent page must hit")
	}
	if tlb.MissRate() <= 0 || tlb.MissRate() > 1 {
		t.Errorf("miss rate %v out of range", tlb.MissRate())
	}
}

func TestTLBCapacity(t *testing.T) {
	// An 8-entry iTLB thrashes on a 9-page round-robin; a 32-entry one
	// holds it — the paper's footnote about the 21064's tiny iTLB.
	small := NewTLB(8, 8<<10)
	big := NewTLB(32, 8<<10)
	for pass := 0; pass < 10; pass++ {
		for pg := uint32(0); pg < 9; pg++ {
			small.Access(pg * 8192)
			big.Access(pg * 8192)
		}
	}
	if small.Misses != small.Accesses {
		t.Errorf("8-entry TLB should thrash on 9 pages in LRU order: %d/%d", small.Misses, small.Accesses)
	}
	if big.Misses != 9 {
		t.Errorf("32-entry TLB should hold 9 pages: misses = %d", big.Misses)
	}
}

func TestPredictorDirection(t *testing.T) {
	p := NewPredictor(256, 12, 32)
	pc, target := uint32(0x1000), uint32(0x0f00)
	// Always-taken branch: after the first trip, a 1-bit predictor is
	// always right.
	for i := 0; i < 100; i++ {
		p.Cond(pc, target, true)
	}
	if p.Mispredicts != 1 {
		t.Errorf("always-taken mispredicts = %d, want 1", p.Mispredicts)
	}
	// Alternating branch: a 1-bit predictor is always wrong.
	p2 := NewPredictor(256, 12, 32)
	for i := 0; i < 100; i++ {
		p2.Cond(pc, target, i%2 == 0)
	}
	if p2.Mispredicts < 99 {
		t.Errorf("alternating mispredicts = %d, want >= 99", p2.Mispredicts)
	}
}

func TestPredictorReturnStack(t *testing.T) {
	p := NewPredictor(256, 12, 32)
	p.Call(0x2000)
	if p.Ret(0x2000) {
		t.Error("matched return must predict correctly")
	}
	if !p.Ret(0x2000) {
		t.Error("empty-stack return must mispredict")
	}
	p.Call(0x3000)
	if !p.Ret(0x9000_0000) {
		t.Error("cross-page mismatch must mispredict")
	}
}

func TestPredictorReturnStackOverflow(t *testing.T) {
	p := NewPredictor(256, 4, 32)
	// Deeper than the stack: the oldest entries are lost.
	for i := 0; i < 8; i++ {
		p.Call(uint32(0x1000 * (i + 1)))
	}
	misses := 0
	for i := 7; i >= 0; i-- {
		if p.Ret(uint32(0x1000 * (i + 1))) {
			misses++
		}
	}
	if misses == 0 {
		t.Error("overflowed return stack should miss for the lost frames")
	}
	if misses > 4 {
		t.Errorf("at most the lost frames should miss, got %d", misses)
	}
}

func TestPredictorMispredictRate(t *testing.T) {
	p := NewPredictor(16, 4, 8)
	if p.MispredictRate() != 0 {
		t.Error("idle predictor must report 0")
	}
	p.Cond(0, 4, true)
	if p.MispredictRate() != 1 {
		t.Errorf("rate = %v, want 1", p.MispredictRate())
	}
}
