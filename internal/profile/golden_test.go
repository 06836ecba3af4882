package profile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"interplab/internal/harness"
	"interplab/internal/profile"
)

// mergedForRun executes one experiment with profiling and returns the
// merged profile of every measured program.
func mergedForRun(t *testing.T, id string, scale float64) *profile.Profile {
	t.Helper()
	set := profile.NewSet()
	if err := harness.Run(id, harness.Options{Scale: scale, Out: io.Discard, Profile: set}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return set.Merged()
}

// folded renders one sample type of p as folded stacks.
func folded(t *testing.T, p *profile.Profile, typ int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf, typ); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// table2FoldedSHA256 pins the SHA-256 of table2's merged folded output at
// scale 0.05, one digest per sample type.  The imiss and dmiss digests
// cover the join of the pipeline's cache misses back to the profiler.
// Any change to event synthesis, attribution or the miss join changes a
// digest here; update them only for a change that means to alter profiles.
var table2FoldedSHA256 = [profile.NumSampleTypes]string{
	profile.SampleInstructions: "2f1d1e9804ec994d379a95e6a67001fcdf521c336f4f67a4dda50d9ab03e69d7",
	profile.SampleLoads:        "9b035ad88af40400b59e6b6487e5759f9649022c25ba2454f9a542c003ac0a84",
	profile.SampleStores:       "abd58867b1211e09d3cec4a13ad990feaac6224fe81a83e638d69594f1274d86",
	profile.SampleBranches:     "8e56a6b9a2058039de8c1fb4f8321de03e9e5f9a3e6a355ce3fe42128cd2883f",
	profile.SampleIMiss:        "6b8f33c9c19feebe8e72915d72ef8c7753bd54e1ff2c6b910b063a8d94055fe0",
	profile.SampleDMiss:        "937dcef29ec569f4272eb726cef2bed39243a8b631a0a1646e5bc8fac079c02a",
}

// TestFoldedOutputIsDeterministic is the profile-determinism golden test
// (the suite-level sibling of workloads' determinism tests): the same
// experiment at the same scale must produce byte-identical folded-stack
// output, so profiles can be diffed across commits like any other golden
// artifact, and that output must match the pinned digests.
func TestFoldedOutputIsDeterministic(t *testing.T) {
	const id, scale = "table2", 0.05
	a := mergedForRun(t, id, scale)
	b := mergedForRun(t, id, scale)
	for typ, want := range table2FoldedSHA256 {
		name := profile.SampleTypes[typ].Type
		fa, fb := folded(t, a, typ), folded(t, b, typ)
		if len(fa) == 0 {
			t.Errorf("%s: empty %s folded profile", id, name)
		}
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s folded output differs between identical runs of %s (len %d vs %d)", name, id, len(fa), len(fb))
		}
		sum := sha256.Sum256(fa)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s folded output of %s: sha256 %s, want %s", name, id, got, want)
		}
	}
	// And the deliverable itself: one profiled run of the shared suite
	// yields per-routine stacks for every interpreter.
	inst := folded(t, a, profile.SampleInstructions)
	for _, sys := range []string{"MIPSI/", "Java/", "Perl/", "Tcl/"} {
		if !bytes.Contains(inst, []byte(sys)) {
			t.Errorf("folded output has no %s stacks", sys)
		}
	}
}
