package simtest

import (
	"strings"
	"testing"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/transport"
)

func TestConsensusComboKeyRoundTrip(t *testing.T) {
	cb := ConsensusCombo{
		ProgSeed: 9, Mode: ftvm.ModeSched,
		KillLeader: true, KillAtSend: 7, KillDeliver: true,
		PartAt: 3, PartLen: 4, InjectStale: true,
		FaultKind: transport.FaultCorruptRecv, FaultAt: 2,
		ESeed: 11, NetSeed: 5, ReorderNum: 1, ReorderDen: 8,
	}
	key := cb.Key()
	back, err := Parse(key)
	if err != nil {
		t.Fatalf("parse %q: %v", key, err)
	}
	if back != cb {
		t.Fatalf("round trip changed the combo:\n  in  %+v\n  out %+v", cb, back)
	}
	if back.Key() != key {
		t.Fatalf("re-render changed the key: %q vs %q", back.Key(), key)
	}
}

func TestIsConsensusKeyDispatch(t *testing.T) {
	consensusKey := ConsensusCombo{ProgSeed: 1, Mode: ftvm.ModeLock}.Key()
	pairKey := Combo{ProgSeed: 1, Mode: ftvm.ModeLock}.Key()
	viewKey := ViewCombo{ProgSeed: 1, Mode: ftvm.ModeLock}.Key()
	for key, want := range map[string]ReplayKind{
		consensusKey: ReplayConsensus, pairKey: ReplayPair, viewKey: ReplayView,
	} {
		if got, err := ClassifyReplayKey(key); err != nil || got != want {
			t.Fatalf("ClassifyReplayKey(%q) = %v, %v; want %v", key, got, err, want)
		}
	}
}

// TestRunConsensusSweep runs a small sweep and checks both the top-level
// verdict (no divergence) and that the schedule classes actually fired:
// leader kills recovered from the committed prefix, follower kills rode out
// on the remaining majority, and stale injections were rejected.
func TestRunConsensusSweep(t *testing.T) {
	cfg := ConsensusSweepConfig{
		VMSpace:   VMSpace{ProgSeeds: []uint64{1, 2}},
		KillSends: []int{2, 5},
	}
	res := Sweep(cfg.Combos(), nil)
	for _, f := range res.Failures {
		t.Errorf("FAIL %s\n  replay: %s", f.TraceLine(), f.ReplayCommand())
	}
	var leaderKills, recoveries, staleSeen int
	for _, line := range res.Trace {
		if strings.Contains(line, "who=leader") && !strings.Contains(line, "kill=0,") {
			leaderKills++
			if strings.Contains(line, "recovered=true") {
				recoveries++
			}
		}
		if strings.Contains(line, "inject=1") && !strings.Contains(line, "stale=0 ") {
			staleSeen++
		}
	}
	if leaderKills == 0 || recoveries == 0 {
		t.Fatalf("sweep never exercised leader-kill recovery (%d kills, %d recoveries)", leaderKills, recoveries)
	}
	if staleSeen == 0 {
		t.Fatal("sweep never counted a rejected stale-term frame")
	}
}

// TestConsensusTraceDeterminism replays the same configuration twice and
// requires byte-identical traces — elections, kills, partitions, commit
// timing and all, pinned by hash across commits. This is the property that
// makes a printed replay string a real repro.
func TestConsensusTraceDeterminism(t *testing.T) {
	cfg := ConsensusSweepConfig{
		VMSpace:   VMSpace{ProgSeeds: []uint64{3}},
		KillSends: []int{2, 5},
		ESeeds:    []uint64{1, 7}, // 7: a contested election (simultaneous candidacies)
	}
	a := Sweep(cfg.Combos(), nil)
	b := Sweep(cfg.Combos(), nil)
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace line %d differs:\n  %s\n  %s", i, a.Trace[i], b.Trace[i])
		}
	}
	pinTrace(t, a.Trace, "c7b6f06fe0ccc37555edc4aa2570ec0148834897613aa6f29500ed89def11fca")
}

// TestConsensusFollowerKillKeepsMajority pins the follower-kill contract
// directly: the run completes without recovery, on the leader's term,
// through the surviving majority.
func TestConsensusFollowerKillKeepsMajority(t *testing.T) {
	prog, ref, err := comboProgram(2, fuzzgen.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	cb := ConsensusCombo{
		ProgSeed: 2, Mode: ftvm.ModeLock,
		KillAtSend: 3, // follower's 3rd protocol send
		ESeed:      1, NetSeed: 1, ReorderNum: 1, ReorderDen: 8,
	}
	r, err := RunConsensusCluster(cb.consensusClusterConfig(prog))
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, ref, r.Console, "follower-kill output")
	if r.Killed || r.Recovered {
		t.Fatalf("follower kill must not kill the VM or force recovery: %+v", r)
	}
	if r.FinalTerm != 1 || r.FinalLeader != r.FirstLeader {
		t.Fatalf("leadership moved on a follower kill: term %d, leader %d->%d",
			r.FinalTerm, r.FirstLeader, r.FinalLeader)
	}
}
