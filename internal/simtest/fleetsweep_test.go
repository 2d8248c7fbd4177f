package simtest

import (
	"strings"
	"testing"
)

func TestFleetComboKeyRoundTrip(t *testing.T) {
	cfg := FleetSweepConfig{Seeds: []uint64{3, 9}}
	for _, cb := range cfg.Combos() {
		key := cb.Key()
		got, err := Parse(key)
		if err != nil {
			t.Fatalf("parse %q: %v", key, err)
		}
		if got != cb {
			t.Fatalf("round trip %q:\n got %+v\nwant %+v", key, got, cb)
		}
		if k, err := ClassifyReplayKey(key); err != nil || k != ReplayFleet {
			t.Fatalf("ClassifyReplayKey(%q) = %v, %v; want fleet", key, k, err)
		}
	}
	// A view key must not be mistaken for a fleet key.
	viewKey := "prog=7,size=small,mode=sched,kill1=3,d1=0,kill2=5,d2=1,fault=none@0,inject=1,net=3,reorder=1/8"
	if k, err := ClassifyReplayKey(viewKey); err != nil || k != ReplayView {
		t.Fatalf("ClassifyReplayKey(%q) = %v, %v; want view", viewKey, k, err)
	}
}

func TestParseFleetComboRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"clients",                  // not key=value
		"clients=x",                // not an int
		"clients=10,ka=3",          // kill missing @
		"clients=10,fault=ackdrop", // fault missing /every
		"clients=10,zebra=1",       // unknown field
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted garbage", bad)
		}
	}
}

// TestFleetSweepDeterministic: the same configuration swept twice produces a
// byte-identical trace — the property that makes any failing line a complete
// repro, pinned by hash across commits — and the default schedule passes
// every invariant.
func TestFleetSweepDeterministic(t *testing.T) {
	cfg := FleetSweepConfig{Seeds: []uint64{1}, Clients: 400, Ops: 2}
	a := Sweep(cfg.Combos(), nil)
	if len(a.Failures) != 0 {
		var lines []string
		for _, f := range a.Failures {
			lines = append(lines, f.TraceLine(), "  replay: "+f.ReplayCommand())
		}
		t.Fatalf("%d/%d combos failed:\n%s", len(a.Failures), a.Combos, strings.Join(lines, "\n"))
	}
	b := Sweep(cfg.Combos(), nil)
	if strings.Join(a.Trace, "\n") != strings.Join(b.Trace, "\n") {
		for i := range a.Trace {
			if i < len(b.Trace) && a.Trace[i] != b.Trace[i] {
				t.Errorf("trace line %d diverged:\n  %s\n  %s", i, a.Trace[i], b.Trace[i])
			}
		}
		t.Fatal("sweep trace is not deterministic")
	}
	pinTrace(t, a.Trace, "7a6f138028d81867d86959e3f13cfb1926241da60a2c360162b96fee012b2da1")
	// Different seeds must visibly change the trace (checksums differ).
	c := Sweep(FleetSweepConfig{Seeds: []uint64{2}, Clients: 400, Ops: 2}.Combos(), nil)
	if a.Trace[0][strings.Index(a.Trace[0], "sum="):] == c.Trace[0][strings.Index(c.Trace[0], "sum="):] {
		t.Fatal("different seeds produced identical clean-run checksums")
	}
}

// fleetReplaySeeds is the fleet regression table: replay keys distilled from
// failure classes fixed while building the fleet. Each line is a complete
// repro (go run ./cmd/ftvm-sim -replay "<key>").
var fleetReplaySeeds = []struct {
	class string
	key   string
}{
	{
		// Promotion replay diverged when a fresh op executed while an earlier
		// op's frame was still unacked; fixed by the head-of-line pending
		// barrier (stop-and-wait admits one in-flight op per shard).
		class: "framedrop-pending-barrier",
		key:   "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=framedrop/13,inject=0",
	},
	{
		// A record was logged twice when recruitment state transfer copied an
		// unacked record that the primary then retransmitted; fixed by
		// counting the transfer itself as the commit.
		class: "ackdrop-transfer-commits-pending",
		key:   "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=ackdrop/13,inject=0",
	},
	{
		// A committed op's lost reply must be answered from the promoted
		// replica's replayed dedup table, not re-executed.
		class: "replydrop-failover-dedup",
		key:   "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=replydrop/13,inject=0",
	},
	{
		// Two kills force a second round of reseats including shards already
		// running on a recruited backup's transferred state.
		class: "double-kill-rebalance",
		key:   "seed=11,nodes=4,shards=8,clients=1000,ops=3,ka=1@200,kb=2@700,fault=none/0,inject=0",
	},
	{
		// A deposed configuration's frame probed at a reseated shard must be
		// dropped by the epoch gate, never logged.
		class: "stale-epoch-straggler",
		key:   "seed=7,nodes=4,shards=8,clients=800,ops=3,ka=2@200,kb=0@0,fault=none/0,inject=1",
	},
	{
		// Larger population: sampling path + route-cache staleness at scale.
		class: "scale-sampled-verify",
		key:   "seed=5,nodes=5,shards=16,clients=10000,ops=2,ka=2@400,kb=0@0,fault=none/0,inject=0",
	},
}

// TestFleetReplaySeeds replays the fleet regression table. A failure here
// means a fleet failure class fixed in this PR has reopened; the table line
// is the repro.
func TestFleetReplaySeeds(t *testing.T) { replayTable(t, fleetReplaySeeds) }

// TestFleetComboTraceStable pins one combo's full trace line, so an
// unintentional change to the deterministic execution (RNG derivation, cost
// model, histogram) shows up as a diff here rather than silently changing
// every committed benchmark.
func TestFleetComboTraceStable(t *testing.T) {
	sc, err := Parse("seed=1,nodes=4,shards=8,clients=400,ops=2,ka=0@0,kb=0@0,fault=none/0,inject=0")
	if err != nil {
		t.Fatal(err)
	}
	a := Run(sc).TraceLine()
	b := Run(sc).TraceLine()
	if a != b {
		t.Fatalf("trace line not reproducible:\n%s\n%s", a, b)
	}
	if !strings.HasSuffix(a, " ok") {
		t.Fatalf("pinned combo failed: %s", a)
	}
	if !strings.Contains(a, "retries=0") || !strings.Contains(a, "oks=800") {
		t.Fatalf("clean combo trace unexpected: %s", a)
	}
}
