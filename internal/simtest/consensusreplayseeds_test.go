package simtest

import (
	"testing"
)

// consensusReplaySeeds pins the consensus backend's historical failure
// classes to exact, seed-reproducible schedules, mirroring replaySeeds for
// the pair path. Each key replays via `ftvm-sim -replay` and through
// `make replay-seeds`.
var consensusReplaySeeds = []struct {
	class string
	key   string
}{
	{
		// This PR: leader killed mid-commit — the kill lands between a
		// majority ack and output release, so recovery must rebuild from the
		// committed prefix and the new leader's barrier entry must carry the
		// surviving tail (the Raft no-op commit rule).
		"leader kill mid-commit",
		"prog=1,size=small,mode=lock,who=leader,kill=5,deliver=1,part=0+0,inject=0,fault=none@0,eseed=1,net=1,reorder=1/8",
	},
	{
		// This PR: stale-term frame — an AppendEntries from a dead term must
		// be rejected and counted, never folded into the log. The harness
		// injects a term-0 probe at a follower mid-run; the sweep asserts
		// StaleTerms > 0 on top of trace identity.
		"stale-term frame rejected",
		"prog=2,size=small,mode=sched,who=follower,kill=0,deliver=0,part=0+0,inject=1,fault=none@0,eseed=1,net=1,reorder=1/8",
	},
	{
		// This PR: split vote — election seed 7 makes two replicas campaign
		// simultaneously; the split must resolve through the third voter
		// without disturbing the output stream. (The original livelock was a
		// Weyl-lattice correlation in electionRNG: correlated timeout streams
		// re-split the vote forever.)
		"split vote resolves via third voter",
		"prog=3,size=small,mode=lock,who=follower,kill=0,deliver=0,part=0+0,inject=0,fault=none@0,eseed=7,net=1,reorder=1/8",
	},
	{
		// Contested election AND a leader kill: the term-1 leader that won a
		// split vote dies mid-run, forcing a second, uncontested election on
		// already-perturbed timeout streams.
		"leader kill after a contested election",
		"prog=1,size=small,mode=lock,who=leader,kill=3,deliver=0,part=0+0,inject=0,fault=none@0,eseed=7,net=1,reorder=1/8",
	},
	{
		// A finite partition window on a follower link: the follower falls
		// behind, then catches up via the leader's nextIndex backoff; commit
		// progress must continue on the unaffected majority throughout.
		"follower partition heals by log catch-up",
		"prog=2,size=small,mode=lockint,who=follower,kill=0,deliver=0,part=3+4,inject=0,fault=none@0,eseed=1,net=1,reorder=1/8",
	},
	{
		// Link fault plus follower kill: a corrupting link exercises the
		// malformed-message drop path while a follower dies, leaving exactly
		// a bare majority to carry the run.
		"corrupt link with a follower kill",
		"prog=4,size=small,mode=lock,who=follower,kill=4,deliver=0,part=0+0,inject=0,fault=corrupt-recv@2,eseed=1,net=2,reorder=1/8",
	},
}

// TestConsensusReplaySeeds replays the consensus regression table. A failure
// here means a previously-fixed failure class has reopened; the table line
// is the repro.
func TestConsensusReplaySeeds(t *testing.T) { replayTable(t, consensusReplaySeeds) }
