package simtest

import (
	"strings"
	"testing"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/transport"
)

// TestViewComboKeyRoundTrip: every field of a view combo survives
// Key -> Parse, so a printed trace line is a complete repro.
func TestViewComboKeyRoundTrip(t *testing.T) {
	in := ViewCombo{
		ProgSeed: 42, Size: fuzzgen.SizeSmall, Mode: ftvm.ModeSched,
		Kill1AtSend: 7, Kill1Deliver: true,
		Kill2AtSend: 2, Kill2Deliver: false,
		FaultKind: transport.FaultCorruptRecv, FaultAt: 1,
		InjectStale: true,
		NetSeed:     9, ReorderNum: 1, ReorderDen: 4,
	}
	out, err := Parse(in.Key())
	if err != nil {
		t.Fatalf("parse %q: %v", in.Key(), err)
	}
	if out != in {
		t.Fatalf("round trip changed the combo:\n in: %+v\nout: %+v\nkey: %s", in, out, in.Key())
	}
	if k, _ := ClassifyReplayKey("prog=1,size=small,mode=lock,kill=5,deliver=1,fault=none@0,net=1,reorder=1/8"); k == ReplayView {
		t.Fatal("a pair-combo key classified as a view key")
	}
}

// TestViewSweepTraceDeterminism: the same view sweep run twice yields a
// byte-identical trace — virtual time, record counts and view numbers
// included, pinned by hash across commits — and no combo fails.
func TestViewSweepTraceDeterminism(t *testing.T) {
	cfg := ViewSweepConfig{
		VMSpace: VMSpace{
			ProgSeeds: []uint64{3},
			Modes:     []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched},
			NetSeeds:  []int64{5},
		},
		Kill1Sends: []int{3},
		Kill2Sends: []int{1, 6},
	}
	first := Sweep(cfg.Combos(), nil)
	second := Sweep(cfg.Combos(), nil)
	if len(first.Failures) != 0 {
		t.Fatalf("sweep failed:\n%s\nreplay: %s",
			first.Failures[0].TraceLine(), first.Failures[0].ReplayCommand())
	}
	a, b := strings.Join(first.Trace, "\n"), strings.Join(second.Trace, "\n")
	if a != b {
		t.Fatalf("same sweep, different traces:\n--- first\n%s\n--- second\n%s", a, b)
	}
	pinTrace(t, first.Trace, "c67ff7a73848ccdf7ca306b3f4daa02454b329c138fdda629f170495006929c6")
	t.Logf("%d view combos, trace stable", first.Combos)
}

// TestViewSweepSmoke runs the default schedule space over one program in all
// three modes — every combo must hold the exactly-once contract whatever the
// two-stage fault schedule does.
func TestViewSweepSmoke(t *testing.T) {
	cfg := ViewSweepConfig{VMSpace: VMSpace{ProgSeeds: []uint64{3}, NetSeeds: []int64{5}}}
	res := Sweep(cfg.Combos(), nil)
	for _, f := range res.Failures {
		t.Errorf("%s\nreplay: %s", f.TraceLine(), f.ReplayCommand())
	}
	if res.Combos < 20 {
		t.Fatalf("smoke sweep covered only %d combos", res.Combos)
	}
	t.Logf("%d view combos ok in %v", res.Combos, res.Elapsed)
}

// viewReplaySeeds pins the failure classes closed by this PR's view-change
// work, one exact replay string per class (same workflow as replaySeeds:
// `ftvm-sim -replay` takes these strings verbatim).
var viewReplaySeeds = []struct {
	class string
	key   string
}{
	{
		// Split-brain probe: a deposed primary's epoch-1 frame delivered to
		// the recruit right after the state transfer must be dropped without
		// an ack (epoch gate ahead of the sequence gate).
		"stale-epoch frame after promotion",
		"prog=3,size=small,mode=lock,kill1=4,d1=0,kill2=0,d2=0,fault=none@0,inject=1,net=5,reorder=1/8",
	},
	{
		// Ack-loop desync on the new pair: the transfer's first ack arrives
		// corrupted, the promoted primary must refuse it (ErrProtocolDesync)
		// and the recruit finishes the job from its logged prefix.
		"corrupt ack during state transfer",
		"prog=3,size=small,mode=lock,kill1=3,d1=0,kill2=0,d2=0,fault=corrupt-recv@1,inject=0,net=5,reorder=1/8",
	},
	{
		// n−1 survival with the double-takeover guard in the path: two
		// sequential promotions, each acquiring its view exactly once.
		"sequential failures through two promotions",
		"prog=3,size=small,mode=sched,kill1=3,d1=0,kill2=6,d2=1,fault=none@0,inject=0,net=5,reorder=1/8",
	},
	{
		// The promoted primary dies on the transfer's first frame: the
		// recruit holds at most a partial prefix and must still reproduce
		// the reference exactly once.
		"death on the first transfer frame",
		"prog=3,size=small,mode=lockint,kill1=4,d1=0,kill2=1,d2=0,fault=none@0,inject=0,net=5,reorder=1/8",
	},
	{
		// Partition on the new pair mid-tail: the promoted primary loses its
		// recruit and the recruit's takeover closes the chain.
		"partition between promoted primary and recruit",
		"prog=3,size=small,mode=lock,kill1=3,d1=1,kill2=0,d2=0,fault=partition-send@4,inject=0,net=5,reorder=1/8",
	},
}

// TestViewReplaySeeds replays the view regression table. A failure means a
// view-change failure class fixed in this PR has reopened.
func TestViewReplaySeeds(t *testing.T) { replayTable(t, viewReplaySeeds) }
