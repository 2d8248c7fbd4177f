package simtest

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
)

// pinTrace checks the SHA-256 of a sweep's joined trace against the hash
// recorded when the pin was set, so a trace change across commits fails
// here even when each commit is deterministic on its own.
func pinTrace(t *testing.T, trace []string, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(trace, "\n")))); got != want {
		t.Fatalf("trace of %d lines hashes to %s, pinned %s:\n%s", len(trace), got, want, strings.Join(trace, "\n"))
	}
}

// TestSweepTraceDeterminism is the harness's core promise: the same sweep
// configuration produces a byte-identical trace on every run — outcomes,
// record counts, and simulated timestamps included. Any wall-clock leak into
// the schedule (a real timer racing a virtual one, an unseeded draw) shows up
// here as a diff, and the pinned hash catches a change across commits.
func TestSweepTraceDeterminism(t *testing.T) {
	cfg := SweepConfig{
		VMSpace: VMSpace{
			ProgSeeds: []uint64{1, 2},
			Size:      fuzzgen.SizeSmall,
			Modes:     []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched},
			NetSeeds:  []int64{3},
		},
		KillSends: []int{1, 4},
	}
	first := Sweep(cfg.Combos(), nil)
	if first.Combos == 0 {
		t.Fatal("empty sweep")
	}
	for _, f := range first.Failures {
		t.Errorf("combo failed: %s\nreplay: %s", f.TraceLine(), f.ReplayCommand())
	}
	second := Sweep(cfg.Combos(), nil)
	a, b := strings.Join(first.Trace, "\n"), strings.Join(second.Trace, "\n")
	if a != b {
		t.Fatalf("sweep trace not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	pinTrace(t, first.Trace, "eabeedd4a35d0f0b155d51088d072991a51530c0ab6a77ebe00c81b09cca2235")
}

// TestSweepBroad runs the full default schedule space — kill points × channel
// faults × modes × network seeds over several generated programs, more than
// 200 combos — and requires every schedule to reproduce the reference output.
// The whole sweep must finish far inside a minute of wall time: that budget
// is the point of simulating, so it is asserted, not hoped for.
func TestSweepBroad(t *testing.T) {
	cfg := SweepConfig{VMSpace: VMSpace{
		ProgSeeds: []uint64{1, 2, 3, 4},
		Size:      fuzzgen.SizeSmall,
		NetSeeds:  []int64{1, 2},
	}}
	combos := cfg.Combos()
	if len(combos) < 200 {
		t.Fatalf("default sweep enumerates only %d combos, want >= 200", len(combos))
	}
	res := Sweep(combos, nil)
	for _, f := range res.Failures {
		t.Errorf("combo failed: %s\nreplay: %s", f.TraceLine(), f.ReplayCommand())
	}
	if res.Elapsed > 60*time.Second {
		t.Fatalf("sweep of %d combos took %v wall time, want < 60s", res.Combos, res.Elapsed)
	}
	t.Logf("%d combos in %v wall", res.Combos, res.Elapsed.Round(time.Millisecond))
}

// TestComboKeyRoundTrip pins the replay-string format: every enumerated combo
// parses back to itself, so the single line the sweep prints on failure is
// always sufficient to reproduce the run.
func TestComboKeyRoundTrip(t *testing.T) {
	cfg := SweepConfig{VMSpace: VMSpace{ProgSeeds: []uint64{7}, Size: fuzzgen.SizeMedium, NetSeeds: []int64{-4}}}
	for _, cb := range cfg.Combos() {
		parsed, err := Parse(cb.Key())
		if err != nil {
			t.Fatalf("Parse(%q): %v", cb.Key(), err)
		}
		if parsed != cb {
			t.Fatalf("round trip changed combo: %q -> %q", cb.Key(), parsed.Key())
		}
	}
	// The dispatch field renders only when non-default and round-trips.
	sw := Combo{ProgSeed: 7, Size: fuzzgen.SizeSmall, Mode: ftvm.ModeSched,
		ReorderDen: 8, Dispatch: ftvm.DispatchSwitch}
	if !strings.Contains(sw.Key(), "dispatch=switch") {
		t.Fatalf("switch-engine combo key %q does not carry the dispatch field", sw.Key())
	}
	if parsed, err := Parse(sw.Key()); err != nil || parsed != sw {
		t.Fatalf("dispatch round trip: %q -> %v (%v)", sw.Key(), parsed, err)
	}
	if _, err := Parse("prog=1,bogus=2"); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse("mode=warp"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestFuzzReplayKeyParses pins the bridge from the live fuzzer: the
// `ftvm-sim -replay` string that ftvm-fuzz prints for a failing seed must be
// parse as a pair combo and name the same generated program.
func TestFuzzReplayKeyParses(t *testing.T) {
	f := &fuzzgen.Failure{Seed: 8241, Size: fuzzgen.SizeMedium, Stage: fuzzgen.StageFailover}
	key := fuzzgen.SimReplayKey(f)
	sc, err := Parse(key)
	if err != nil {
		t.Fatalf("Parse(%q): %v", key, err)
	}
	cb, ok := sc.(Combo)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want a pair Combo", key, sc)
	}
	if cb.ProgSeed != f.Seed || cb.Size != f.Size {
		t.Fatalf("combo %q lost the program identity (seed %d size %s)", key, f.Seed, f.Size)
	}
	if cb.KillAtSend == 0 && cb.FaultKind == 0 {
		t.Fatalf("combo %q carries no failure schedule", key)
	}
}
