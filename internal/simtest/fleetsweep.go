package simtest

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/loadgen"
	"repro/internal/simtest/clock"
)

// FleetCombo is one point of the sharded-fleet sweep: a fleet shape, a seeded
// open-loop workload, up to two node kills inside the arrival window, one
// replication-hop fault plan, and optionally a stale-epoch frame probe after
// the run. Its key looks like
//
//	seed=7,nodes=4,shards=8,clients=2000,ops=3,ka=2@300,kb=0@0,fault=ackdrop/13,inject=1
type FleetCombo struct {
	Seed    uint64
	Nodes   int
	Shards  int
	Clients int
	Ops     int
	// Kill schedule: node is a 1-based index into the fleet's join order
	// ("n<k>"), 0 = no kill; At is the offset in the arrival window.
	Kill1Node int
	Kill1At   time.Duration
	Kill2Node int
	Kill2At   time.Duration
	// Fault and FaultEvery strike every Nth replication attempt.
	Fault      string
	FaultEvery uint64
	// InjectStale probes a reseated shard with a deposed epoch's frame after
	// the workload drains; the backup must drop it unlogged.
	InjectStale bool
}

func (cb *FleetCombo) fields() []field {
	return []field{
		{name: "seed", val: uintVal(&cb.Seed)},
		{name: "nodes", val: intVal(&cb.Nodes)},
		{name: "shards", val: intVal(&cb.Shards)},
		{name: "clients", val: intVal(&cb.Clients)},
		{name: "ops", val: intVal(&cb.Ops)},
		{name: "ka", val: joined{"@", intVal(&cb.Kill1Node), msVal(&cb.Kill1At)}},
		{name: "kb", val: joined{"@", intVal(&cb.Kill2Node), msVal(&cb.Kill2At)}},
		{name: "fault", val: joined{"/", stringVal(&cb.Fault), uintVal(&cb.FaultEvery)}},
		{name: "inject", val: boolVal(&cb.InjectStale)},
	}
}

// Key renders the combo as its canonical replay string.
func (cb FleetCombo) Key() string { return encodeKey(cb.fields()) }

// fleetConfigs expands the combo into the fleet and workload configurations
// it denotes.
func (cb FleetCombo) fleetConfigs(clk clock.Clock) (fleet.Config, loadgen.Config) {
	nodes := make([]string, cb.Nodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i+1)
	}
	fcfg := fleet.Config{
		Clock:      clk,
		Nodes:      nodes,
		Shards:     cb.Shards,
		Fault:      cb.Fault,
		FaultEvery: cb.FaultEvery,
	}
	lcfg := loadgen.Config{
		Clients:      cb.Clients,
		OpsPerClient: cb.Ops,
		Seed:         cb.Seed,
	}
	if cb.Clients > 4096 {
		lcfg.SampleEvery = 64 // bound observation memory on large populations
	}
	if cb.Kill1Node > 0 {
		lcfg.Kills = append(lcfg.Kills, loadgen.Kill{At: cb.Kill1At, Node: fmt.Sprintf("n%d", cb.Kill1Node)})
	}
	if cb.Kill2Node > 0 {
		lcfg.Kills = append(lcfg.Kills, loadgen.Kill{At: cb.Kill2At, Node: fmt.Sprintf("n%d", cb.Kill2Node)})
	}
	return fcfg, lcfg
}

// run plays the combo's workload on a fresh virtual clock and checks the
// fleet invariants the sweep exists to enforce: every request completes
// exactly once against the model (loadgen.Run verifies this), a kill causes
// promotions but blasts less than the dead node's seat share, and a
// stale-epoch frame probed at a reseated shard is dropped unlogged.
func (cb FleetCombo) run(programCache) *Outcome {
	out := &Outcome{Key: cb.Key(), failTag: "FAIL"}
	simulate(2*time.Minute, func(clk *clock.Virtual) {
		fcfg, lcfg := cb.fleetConfigs(clk)
		f, err := fleet.New(fcfg)
		if err != nil {
			out.Err = err
			return
		}
		st, _, err := loadgen.Run(f, clk, lcfg)
		if err != nil {
			out.Err = err
			return
		}
		out.Detail = strings.Join(cb.check(f, st), "; ")
		out.Fields = fmt.Sprintf("oks=%d req=%d retries=%d silent=%d unavail=%d notowner=%d exec=%d dup=%d resent=%d promos=%d transfers=%d stale=%d blast=%d/%d p50=%s p99=%s vtime=%s sum=%016x",
			st.OKs, st.Requests, st.Retries, st.Silent, st.Unavailable, st.NotOwner,
			st.Fleet.Executed, st.Fleet.DupHits, st.Fleet.Resent,
			st.Fleet.Promotions, st.Fleet.Transfers, st.Fleet.StaleFrames,
			st.TenantsBlasted, st.TenantsActive, st.P50, st.P99, st.Elapsed, st.Checksum)
	})
	return out
}

// check returns the broken invariants of a finished run. The stale-epoch
// probe, when scheduled, runs here and refreshes st.Fleet so the trace
// reflects it.
func (cb FleetCombo) check(f *fleet.Fleet, st *loadgen.Stats) []string {
	var fail []string
	if want := uint64(cb.Clients * cb.Ops); st.OKs != want {
		fail = append(fail, fmt.Sprintf("oks=%d want=%d", st.OKs, want))
	}
	if st.Fleet.Executed < st.Requests {
		fail = append(fail, fmt.Sprintf("executed=%d < requests=%d", st.Fleet.Executed, st.Requests))
	}
	kills := 0
	if cb.Kill1Node > 0 {
		kills++
	}
	if cb.Kill2Node > 0 {
		kills++
	}
	if kills > 0 {
		if st.Fleet.Promotions == 0 {
			fail = append(fail, "kill caused no promotions")
		}
		// Blast stays under the dead nodes' share of the fleet.
		if st.BlastRadius >= float64(kills)/float64(cb.Nodes) {
			fail = append(fail, fmt.Sprintf("blast=%d/%d >= %d/%d nodes",
				st.TenantsBlasted, st.TenantsActive, kills, cb.Nodes))
		}
	} else if cb.Fault == fleet.FaultNone || cb.FaultEvery == 0 {
		if st.Retries != 0 || st.Silent != 0 {
			fail = append(fail, fmt.Sprintf("clean run retried %d / silenced %d", st.Retries, st.Silent))
		}
		if st.Fleet.Executed != st.Requests {
			fail = append(fail, fmt.Sprintf("clean run executed=%d != requests=%d", st.Fleet.Executed, st.Requests))
		}
	}
	if cb.InjectStale {
		// Probe the first reseated shard with its formation epoch (Form
		// issues epochs 1..Shards in shard order); with no reseat, probe
		// shard 0 with the never-issued epoch 0. Either way the backup's
		// epoch gate must drop the frame without logging it.
		shard, stale := 0, uint64(0)
		for i := 0; i < f.NumShards(); i++ {
			if f.Shard(i).Num != uint64(i+1) {
				shard, stale = i, uint64(i+1)
				break
			}
		}
		before := f.Counters().StaleFrames
		if f.InjectStaleFrame(shard, stale) {
			fail = append(fail, fmt.Sprintf("stale-epoch frame was logged at shard %d", shard))
		}
		if f.Counters().StaleFrames == before {
			fail = append(fail, "stale-epoch frame not counted as dropped")
		}
		st.Fleet = f.Counters() // trace reflects the probe
	}
	return fail
}

// FleetSweepConfig enumerates the fleet schedule space: for every seed, one
// clean run, then for each kill schedule a kill-only run, a kill per fault
// kind, a double-kill run, and a stale-injection run.
type FleetSweepConfig struct {
	// Seeds are the workload master seeds (required).
	Seeds []uint64
	// Nodes / Shards give the fleet shape (default 4 nodes, 8 shards).
	Nodes  int
	Shards int
	// Clients / Ops give the per-combo population (default 1000 x 3).
	Clients int
	Ops     int
	// Kill1 offsets inside the arrival window (default 200ms, 600ms); the
	// killed node rotates deterministically with the schedule index.
	Kill1Ats []time.Duration
	// Kill2At is the second kill's offset for double-kill combos (default
	// 700ms).
	Kill2At time.Duration
	// FaultEvery is the replication fault stride (default 13).
	FaultEvery uint64
}

// Combos expands the configuration into the full deterministic schedule list.
func (c FleetSweepConfig) Combos() []Scenario {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Clients == 0 {
		c.Clients = 1000
	}
	if c.Ops == 0 {
		c.Ops = 3
	}
	if len(c.Kill1Ats) == 0 {
		c.Kill1Ats = []time.Duration{200 * time.Millisecond, 600 * time.Millisecond}
	}
	if c.Kill2At == 0 {
		c.Kill2At = 700 * time.Millisecond
	}
	if c.FaultEvery == 0 {
		c.FaultEvery = 13
	}
	var out []Scenario
	for _, seed := range c.Seeds {
		base := FleetCombo{
			Seed: seed, Nodes: c.Nodes, Shards: c.Shards,
			Clients: c.Clients, Ops: c.Ops, Fault: fleet.FaultNone,
		}
		out = append(out, base) // clean run
		for i, at := range c.Kill1Ats {
			v := base
			v.Kill1Node = 1 + (int(seed)+i)%c.Nodes
			v.Kill1At = at
			out = append(out, v) // kill only
			for _, kind := range []string{fleet.FaultFrameDrop, fleet.FaultAckDrop, fleet.FaultReplyDrop} {
				vf := v
				vf.Fault = kind
				vf.FaultEvery = c.FaultEvery
				out = append(out, vf) // kill x replication fault
			}
			vv := v
			vv.Kill2Node = 1 + v.Kill1Node%c.Nodes // a different node
			vv.Kill2At = c.Kill2At
			out = append(out, vv) // double kill, rebalance twice
			inj := v
			inj.InjectStale = true
			out = append(out, inj) // deposed-epoch straggler probe
		}
	}
	return out
}
