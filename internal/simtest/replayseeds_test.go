package simtest

import (
	"testing"
)

// replaySeeds is the regression table of fault schedules pinned to failure
// classes found (and fixed) by earlier soak runs — see CHANGES.md PR 1–3.
// Each entry is a full replay string (the same format `ftvm-sim -replay`
// takes and the sweep prints on failure), so a regression reproduces from
// the table line alone. `make replay-seeds` runs exactly this test.
//
// The schedules were chosen to drive the fixed code paths, not recorded at
// the moment of discovery (the original failures predate the deterministic
// harness): what is pinned is that each historical failure *class* stays
// green under an exact, seed-reproducible schedule.
var replaySeeds = []struct {
	class string
	key   string
}{
	{
		// PR 2: RunWithFailover kill-vs-clean-completion race (ftvm.go) —
		// the kill lands on the last frames, racing the halt marker.
		"kill racing clean completion",
		"prog=1,size=small,mode=lock,kill=5,deliver=1,fault=none@0,net=1,reorder=1/8",
	},
	{
		// PR 2: lock-replay recovery deadlock on a log cut between an
		// id-map record and its acquisition record (lockreplay.go) — an
		// early frame-boundary cut in lock mode.
		"lock-replay log cut at frame boundary",
		"prog=2,size=small,mode=lock,kill=2,deliver=1,fault=none@0,net=1,reorder=1/8",
	},
	{
		// PR 3: drawn-but-unshipped device results (devices sehandler) —
		// the primary dies mid-send, losing records for entropy already
		// consumed; recovery must reposition the seeded device streams.
		"unshipped device draws at crash",
		"prog=3,size=small,mode=sched,kill=3,deliver=0,fault=none@0,net=2,reorder=1/8",
	},
	{
		// PR 1: last-ack window — a one-way partition eats acks, so the
		// primary declares the backup lost while the backup may hold a
		// clean log (two-sided detection, exactly-once across the split).
		"ack partition in the last-ack window",
		"prog=1,size=small,mode=lockint,kill=0,deliver=0,fault=partition-recv@2,net=1,reorder=1/8",
	},
	{
		// PR 1: sequence-gap detection (wire.SeqGate) — a dropped frame
		// must surface as a failover with a consistent logged prefix.
		"frame drop forces a seq-gap failover",
		"prog=2,size=small,mode=sched,kill=0,deliver=0,fault=drop-send@3,net=1,reorder=1/8",
	},
	{
		// PR 1: duplicate frames re-acked, not re-logged — exactly-once
		// under a duplicating channel.
		"duplicated frame is dropped and re-acked",
		"prog=4,size=small,mode=lock,kill=0,deliver=0,fault=dup-send@2,net=1,reorder=1/8",
	},
	{
		// This PR: ack-loop desync — the primary's first awaited ack arrives
		// with a flipped byte and a garbage tail. The old `seq >= wantSeq`
		// loop could let a mangled ack satisfy an output commit; the fixed
		// loop aborts with ErrProtocolDesync and the backup takes over.
		"corrupt ack trips the desync guard",
		"prog=3,size=small,mode=lock,kill=0,deliver=0,fault=corrupt-recv@1,net=5,reorder=1/8",
	},
	{
		// Reorder stress: with every other message skipping the FIFO
		// clamp the backup sees heavy out-of-order delivery; the SeqGate
		// must sort real gaps from mere reordering.
		"aggressive reordering under a mid-run kill",
		"prog=3,size=small,mode=lock,kill=4,deliver=1,fault=none@0,net=6,reorder=1/2",
	},
	{
		// PR 9: epoch-based branch counter — a sched-mode kill whose log
		// cuts between two progress flushes. Recovery replays to an exact
		// (br_cnt, method, pc) target; the threaded engine must delegate
		// the stop epoch to the reference loop and land on the identical
		// instruction.
		"sched replay cut between epoch flushes (threaded)",
		"prog=5,size=small,mode=sched,kill=6,deliver=0,fault=none@0,net=1,reorder=1/8",
	},
	{
		// PR 9: the same schedule on the reference engine — the pair pins
		// the two engines against one fault schedule, so an epoch-counter
		// drift shows up as exactly one of these two lines failing.
		"sched replay cut between epoch flushes (switch)",
		"prog=5,size=small,mode=sched,kill=6,deliver=0,fault=none@0,net=1,reorder=1/8,dispatch=switch",
	},
	{
		// PR 9: kill delivered on a block edge — the final frame ships and
		// the recovery target lands exactly on a branch boundary, the case
		// where the threaded engine's block-boundary check (not a
		// per-instruction check) must stop the slice.
		"sched kill lands on a block edge (threaded)",
		"prog=6,size=small,mode=sched,kill=4,deliver=1,fault=none@0,net=2,reorder=1/8",
	},
	{
		"sched kill lands on a block edge (switch)",
		"prog=6,size=small,mode=sched,kill=4,deliver=1,fault=none@0,net=2,reorder=1/8,dispatch=switch",
	},
}

// TestReplaySeeds replays the regression table. A failure here means a
// previously-fixed failure class has reopened; the table line is the repro.
func TestReplaySeeds(t *testing.T) { replayTable(t, replaySeeds) }

// replayTable replays a regression table of any kind, one subtest per class.
func replayTable(t *testing.T, table []struct{ class, key string }) {
	for _, rs := range table {
		t.Run(rs.class, func(t *testing.T) {
			sc, err := Parse(rs.key)
			if err != nil {
				t.Fatalf("table entry %q: %v", rs.key, err)
			}
			out := Run(sc)
			if out.Failed() {
				t.Fatalf("regression in %q:\n%s\nreplay: %s", rs.class, out.TraceLine(), out.ReplayCommand())
			}
			t.Logf("%s", out.TraceLine())
		})
	}
}
