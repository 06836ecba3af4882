package alphasim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/trace"
	"interplab/internal/workloads"
)

// grid is one sweep configuration: sizes × associativities at a line size.
type grid struct {
	sizesKB, assocs []int
	lineSize        int
}

var sweepGrids = []grid{
	{[]int{8, 16, 32, 64}, []int{1, 2, 4}, 32}, // the paper's Figure 4
	{[]int{4, 8}, []int{1, 2, 4, 8}, 64},
}

// reference runs pcs through one plain LRU Cache per grid point.
func reference(g grid, pcs []uint32) []alphasim.SweepPoint {
	var out []alphasim.SweepPoint
	for _, kb := range g.sizesKB {
		for _, a := range g.assocs {
			c := alphasim.NewCache(alphasim.CacheConfig{Size: kb << 10, LineSize: g.lineSize, Assoc: a})
			for _, pc := range pcs {
				c.Access(pc)
			}
			out = append(out, alphasim.SweepPoint{SizeKB: kb, Assoc: a, Instructions: c.Accesses, Misses: c.Misses})
		}
	}
	return out
}

// feedBlocks delivers pcs as EmitBlock calls of at most size events each.
func feedBlocks(s *alphasim.ICacheSweep, pcs []uint32, size int) {
	var b trace.Block
	for _, pc := range pcs {
		b.Append(trace.Event{PC: pc, Kind: trace.Int})
		if b.N == size {
			s.EmitBlock(&b)
			b.Reset()
		}
	}
	if b.N > 0 {
		s.EmitBlock(&b)
	}
}

// feeds are the ways a producer can deliver a stream to the sweep.  The
// interleaving alternates short Emit runs with short blocks of random
// length, so block and path boundaries land inside same-line runs; it
// reports how many did.
var feeds = []struct {
	name string
	feed func(s *alphasim.ICacheSweep, pcs []uint32, rng *rand.Rand) (midLineCuts int)
}{
	{"emit", func(s *alphasim.ICacheSweep, pcs []uint32, _ *rand.Rand) int {
		for _, pc := range pcs {
			s.Emit(trace.Event{PC: pc, Kind: trace.Int})
		}
		return 0
	}},
	{"blocks", func(s *alphasim.ICacheSweep, pcs []uint32, _ *rand.Rand) int {
		feedBlocks(s, pcs, trace.BlockCap)
		return 0
	}},
	{"interleaved", func(s *alphasim.ICacheSweep, pcs []uint32, rng *rand.Rand) int {
		cuts := 0
		for k := 0; k < len(pcs); {
			n := min(1+rng.Intn(24), len(pcs)-k)
			if rng.Intn(2) == 0 {
				for _, pc := range pcs[k : k+n] {
					s.Emit(trace.Event{PC: pc, Kind: trace.Int})
				}
			} else {
				feedBlocks(s, pcs[k:k+n], n)
			}
			k += n
			if k < len(pcs) && pcs[k]/uint32(s.LineSize()) == pcs[k-1]/uint32(s.LineSize()) {
				cuts++
			}
		}
		return cuts
	}},
}

// randomStream returns n word-aligned fetch addresses with loop-like
// locality: straight-line runs through a routine, jumps to a random one
// of many routines, and occasional far branches over a wide footprint.
func randomStream(rng *rand.Rand, n int, footprintKB int) []uint32 {
	pcs := make([]uint32, 0, n)
	routines := make([]uint32, 512)
	for i := range routines {
		routines[i] = uint32(rng.Intn(footprintKB<<10)) &^ 3
	}
	pc := routines[0]
	for len(pcs) < n {
		for run := rng.Intn(40); run > 0 && len(pcs) < n; run-- {
			pcs = append(pcs, pc)
			pc += 4
		}
		if rng.Intn(8) == 0 {
			pc = uint32(rng.Intn(footprintKB<<10)) &^ 3
		} else {
			pc = routines[rng.Intn(1+rng.Intn(len(routines)))]
		}
	}
	return pcs
}

// recordedStream is a real guest's fetch stream: Perl running des.
func recordedStream(t *testing.T) []uint32 {
	t.Helper()
	evs := recordEvents(t, workloads.DESPerl(1))
	pcs := make([]uint32, len(evs))
	for i, e := range evs {
		pcs[i] = e.PC
	}
	return pcs
}

// TestICacheSweepMatchesReferenceCaches is the sweep's differential wall:
// for every grid, stream and feed path, each point's counts must equal
// those of a plain LRU Cache of that geometry fed the same addresses.
func TestICacheSweepMatchesReferenceCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streams := map[string][]uint32{
		"random-48KB":  randomStream(rng, 200_000, 48),
		"random-256KB": randomStream(rng, 200_000, 256),
		"Perl/des":     recordedStream(t),
	}
	for name, pcs := range streams {
		for _, g := range sweepGrids {
			want := reference(g, pcs)
			for _, f := range feeds {
				t.Run(fmt.Sprintf("%s/%dB/%s", name, g.lineSize, f.name), func(t *testing.T) {
					s := alphasim.NewICacheSweep(g.sizesKB, g.assocs, g.lineSize)
					cuts := f.feed(s, pcs, rand.New(rand.NewSource(2)))
					if f.name == "interleaved" && cuts == 0 {
						t.Error("no feed boundary fell inside a same-line run")
					}
					got := s.Points()
					if len(got) != len(want) {
						t.Fatalf("%d points, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("point %s = %+v, reference cache %+v", want[i].Label(), got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestICacheSweepRestorePoints pins the cache-restore contract: restored
// counts replace accumulated ones, and a mismatched grid is refused.
func TestICacheSweepRestorePoints(t *testing.T) {
	live := alphasim.DefaultICacheSweep()
	feedBlocks(live, randomStream(rand.New(rand.NewSource(3)), 50_000, 64), trace.BlockCap)

	restored := alphasim.DefaultICacheSweep()
	restored.Emit(trace.Event{PC: 0x1000})
	if !restored.RestorePoints(live.Points()) {
		t.Fatal("matching grid refused")
	}
	for i, pt := range restored.Points() {
		if pt != live.Points()[i] {
			t.Errorf("restored %+v, want %+v", pt, live.Points()[i])
		}
	}
	other := alphasim.NewICacheSweep([]int{8}, []int{1}, 32)
	if other.RestorePoints(live.Points()) {
		t.Error("mismatched grid accepted")
	}
}
