// Package alphasim is the trace-driven processor simulator of the
// laboratory: a model of a 2-issue in-order microprocessor in the style of
// the DEC Alpha 21064, matching the machine of Table 3 in the paper —
// 8 KB direct-mapped first-level instruction and data caches, a unified
// direct-mapped 512 KB second-level cache, 8 KB pages, an 8-entry
// instruction TLB and a 32-entry data TLB, a 256-entry 1-bit branch history
// table, a 12-entry return stack and a 32-entry branch target cache.
//
// The simulator consumes the native-instruction stream produced by
// internal/atom and accounts every unfilled issue slot to one of the
// paper's stall causes (Figure 3).  It also provides a parametric
// instruction-cache sweep used to regenerate Figure 4.
package alphasim

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     int // bytes
	LineSize int // bytes
	Assoc    int // ways; 1 = direct-mapped
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	s := c.Size / (c.LineSize * c.Assoc)
	if s < 1 {
		s = 1
	}
	return s
}

// mustSimulate panics with validate's message unless the cache can be
// simulated.
func (c CacheConfig) mustSimulate() {
	if err := c.validate(); err != nil {
		panic(err.Error())
	}
}

// validate names the geometry and the reason unless the cache can be
// simulated: a set index is a mask of the line number, so the line size
// and set count must be powers of two, and the size must be exactly
// sets × ways × line.
func (c CacheConfig) validate() error {
	if why := c.unsimulatable(); why != "" {
		return fmt.Errorf("alphasim: cannot simulate cache %q (%d B, %d-way, %d B lines): %s",
			c.Name, c.Size, c.Assoc, c.LineSize, why)
	}
	return nil
}

func (c CacheConfig) unsimulatable() string {
	if c.LineSize < 1 || c.LineSize&(c.LineSize-1) != 0 {
		return "line size is not a power of two"
	}
	if c.Assoc < 1 {
		return "associativity is below 1"
	}
	if sets := c.Sets(); sets&(sets-1) != 0 {
		return fmt.Sprintf("%d sets is not a power of two", sets)
	} else if sets*c.Assoc*c.LineSize != c.Size {
		return fmt.Sprintf("size is not %d sets × %d ways × %d B", sets, c.Assoc, c.LineSize)
	}
	return ""
}

// Cache is a set-associative cache with true-LRU replacement.  A
// direct-mapped cache keeps no ages: its one way is always the victim.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   uint32
	assoc     int
	tags      []uint32 // sets*assoc; tag 0 means empty (tag stored +1)
	age       []uint64 // nil when assoc == 1
	clock     uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache from its geometry.  It panics unless LineSize and
// the set count are powers of two and Size is exactly sets × Assoc ×
// LineSize.
func NewCache(cfg CacheConfig) *Cache {
	cfg.mustSimulate()
	sets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		tags:  make([]uint32, sets*cfg.Assoc),
	}
	if cfg.Assoc > 1 {
		c.age = make([]uint64, sets*cfg.Assoc)
	}
	for c.lineShift = 0; 1<<c.lineShift < cfg.LineSize; c.lineShift++ {
	}
	c.setMask = uint32(sets - 1)
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks addr up, fills on miss, and reports whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	line := addr >> c.lineShift
	tag := line + 1 // +1 so that 0 means "empty"
	if c.assoc == 1 {
		set := line & c.setMask
		if c.tags[set] == tag {
			return true
		}
		c.Misses++
		c.tags[set] = tag
		return false
	}
	c.clock++
	set := int(line&c.setMask) * c.assoc
	var victim, oldest = set, c.age[set]
	for w := 0; w < c.assoc; w++ {
		i := set + w
		if c.tags[i] == tag {
			c.age[i] = c.clock
			return true
		}
		if c.age[i] < oldest {
			oldest = c.age[i]
			victim = i
		}
	}
	c.Misses++
	c.tags[victim] = tag
	c.age[victim] = c.clock
	return false
}

// MissRate returns misses per access (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.age)
	c.clock = 0
	c.Accesses = 0
	c.Misses = 0
}

// TLB is a fully associative translation buffer with LRU replacement.
type TLB struct {
	pageShift uint
	pages     []uint32
	age       []uint64
	clock     uint64
	mru       int // index of the most recently used entry

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given number of entries and page size.
func NewTLB(entries int, pageSize uint32) *TLB {
	t := &TLB{
		pages: make([]uint32, entries),
		age:   make([]uint64, entries),
	}
	for t.pageShift = 0; 1<<t.pageShift < pageSize; t.pageShift++ {
	}
	return t
}

// Access translates addr, fills on miss, and reports whether it hit.  A
// hit on the most recently used entry leaves every age as it was: that
// entry already holds the newest one, so the LRU order cannot change.
func (t *TLB) Access(addr uint32) bool {
	t.Accesses++
	page := (addr >> t.pageShift) + 1
	if t.pages[t.mru] == page {
		return true
	}
	t.clock++
	victim, oldest := 0, t.age[0]
	for i := range t.pages {
		if t.pages[i] == page {
			t.age[i] = t.clock
			t.mru = i
			return true
		}
		if t.age[i] < oldest {
			oldest = t.age[i]
			victim = i
		}
	}
	t.Misses++
	t.pages[victim] = page
	t.age[victim] = t.clock
	t.mru = victim
	return false
}

// MissRate returns misses per access (0 when idle).
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
