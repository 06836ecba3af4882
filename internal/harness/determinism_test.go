package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
)

// detScale is the workload scale of the determinism golden test.  The
// race-detector build (race_scale_test.go) shrinks it: the instrumented
// runs are an order of magnitude slower and would blow the package's test
// timeout, and the byte-identity property does not depend on scale.
var detScale = 0.1

// detRun executes one experiment with a manifest and profile set attached
// and returns everything the parallel scheduler and the measurement cache
// promise to keep byte-identical: the rendered text, the manifest run
// entries (wall times zeroed — they vary even between two serial runs —
// and cache_hit zeroed, the one field that legitimately flips between a
// cold and a warm run), the merged folded profile, and its pprof
// encoding.
func detRun(t *testing.T, id string, parallelism int, cache *rescache.Cache) (text string, runs []byte, folded string, pprof []byte, measured int) {
	t.Helper()
	var buf bytes.Buffer
	man := telemetry.NewManifest(detScale)
	set := profile.NewSet()
	opt := Options{Scale: detScale, Out: &buf, Parallelism: parallelism, Manifest: man, Profile: set, Cache: cache}
	if err := Run(id, opt); err != nil {
		t.Fatalf("%s (parallelism %d): %v", id, parallelism, err)
	}
	for _, r := range man.Runs {
		r.DurationUS = 0
		// The sched block records scheduling itself — timestamps, worker
		// assignment, runtime churn — so it legitimately differs between
		// serial and parallel runs; null it like the wall times.
		r.Sched = nil
		for i := range r.Measurements {
			r.Measurements[i].DurationUS = 0
			r.Measurements[i].CacheHit = false
		}
		measured += len(r.Measurements)
	}
	rb, err := json.Marshal(man.Runs)
	if err != nil {
		t.Fatal(err)
	}
	merged := set.Merged()
	var fb, pb bytes.Buffer
	if err := merged.WriteFolded(&fb, profile.SampleInstructions); err != nil {
		t.Fatal(err)
	}
	if err := merged.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	return buf.String(), rb, fb.String(), pb.Bytes(), measured
}

// TestParallelOutputIsByteIdentical is the scheduler's acceptance test:
// for every experiment, a run on 8 workers must produce byte-identical
// rendered text, manifest entries, and folded profiles to a serial run.
// Ordered collection in the batch makes this hold by construction; this
// test pins it against regressions (including any nondeterminism in the
// measured systems themselves, which would show up here first).
func TestParallelOutputIsByteIdentical(t *testing.T) {
	for _, id := range Experiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			sText, sRuns, sFolded, sPprof, _ := detRun(t, id, 1, nil)
			pText, pRuns, pFolded, pPprof, _ := detRun(t, id, 8, nil)
			if sText != pText {
				t.Errorf("rendered text differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", sText, pText)
			}
			if !bytes.Equal(sRuns, pRuns) {
				t.Errorf("manifest entries differ between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", sRuns, pRuns)
			}
			if sFolded != pFolded {
				t.Errorf("folded profiles differ between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", sFolded, pFolded)
			}
			if !bytes.Equal(sPprof, pPprof) {
				t.Error("pprof encodings differ between serial and parallel")
			}
		})
	}
}

// TestWarmCacheOutputIsByteIdentical is the measurement cache's acceptance
// test: for every experiment, a cold run through an empty cache and a warm
// run (all results restored from disk) must both produce byte-identical
// rendered text, manifest entries, and folded profiles to an uncached run.
// The uncached baseline matters: a key collision inside one experiment
// (two same-ID program variants sharing an entry) corrupts cold and warm
// runs identically, so only the comparison against ground truth exposes
// it — exactly the bug the Program.Variant key field guards against.
func TestWarmCacheOutputIsByteIdentical(t *testing.T) {
	for _, id := range Experiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cache, err := rescache.Open(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			bText, bRuns, bFolded, _, measured := detRun(t, id, 1, nil)
			cText, cRuns, cFolded, _, _ := detRun(t, id, 1, cache)
			wText, wRuns, wFolded, _, _ := detRun(t, id, 1, cache)
			hits, misses, puts, _ := cache.Counts()
			// Config-only experiments (table3) measure nothing, so the
			// cache legitimately stays idle; every measuring experiment
			// must store each cold result and restore each warm one.
			if measured > 0 && (hits == 0 || puts == 0) {
				t.Fatalf("cache never engaged: hits=%d misses=%d puts=%d", hits, misses, puts)
			}
			if misses != puts {
				t.Errorf("warm run missed: %d misses for %d cold puts", misses, puts)
			}
			for _, cmp := range []struct {
				arm          string
				text, folded string
				runs         []byte
			}{
				{"cold", cText, cFolded, cRuns},
				{"warm", wText, wFolded, wRuns},
			} {
				if cmp.text != bText {
					t.Errorf("rendered text differs between uncached and %s:\n--- uncached ---\n%s\n--- %s ---\n%s", cmp.arm, bText, cmp.arm, cmp.text)
				}
				if !bytes.Equal(cmp.runs, bRuns) {
					t.Errorf("manifest entries differ between uncached and %s:\n--- uncached ---\n%s\n--- %s ---\n%s", cmp.arm, bRuns, cmp.arm, cmp.runs)
				}
				if cmp.folded != bFolded {
					t.Errorf("folded profiles differ between uncached and %s:\n--- uncached ---\n%s\n--- %s ---\n%s", cmp.arm, bFolded, cmp.arm, cmp.folded)
				}
			}
		})
	}
}

// TestNegativeParallelismRejected pins the Options contract: 0 means
// GOMAXPROCS, but a negative worker count is a caller bug and must be
// rejected up front, not silently coerced.
func TestNegativeParallelismRejected(t *testing.T) {
	err := Run("table3", Options{Scale: 0.1, Out: &bytes.Buffer{}, Parallelism: -4})
	if err == nil {
		t.Fatal("Parallelism -4 must be rejected")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("-4")) {
		t.Errorf("error should name the bad value: %q", got)
	}
}
