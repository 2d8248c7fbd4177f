package simtest

import (
	"fmt"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
)

// ConsensusCombo is one point of the consensus sweep: a generated program, a
// mode, and a fault schedule over the 3-replica replicated log — who dies at
// which exact protocol send, which leader lane partitions for how long, which
// link misbehaves, whether a stale-term frame probes a follower, and which
// election seed times the campaigns. Its key looks like
//
//	prog=7,size=small,mode=sched,who=leader,kill=12,deliver=1,part=0+0,inject=0,fault=none@0,eseed=1,net=3,reorder=1/8
type ConsensusCombo struct {
	ProgSeed    uint64
	Size        fuzzgen.Size
	Mode        ftvm.Mode
	KillLeader  bool // victim when KillAtSend > 0: elected leader vs follower
	KillAtSend  int  // 0 = no kill
	KillDeliver bool
	PartAt      int // leader-lane partition window [PartAt, PartAt+PartLen)
	PartLen     int // 0 = no partition
	InjectStale bool
	FaultKind   transport.FaultKind // on replica 0's endpoint toward 1
	FaultAt     int
	ESeed       uint64 // election timeout seed (consensus.Config.Seed)
	NetSeed     int64
	ReorderNum  int
	ReorderDen  int
}

func (cb *ConsensusCombo) fields() []field {
	return []field{
		{name: "prog", val: uintVal(&cb.ProgSeed)},
		{name: "size", val: sizeVal(&cb.Size)},
		{name: "mode", val: modeVal(&cb.Mode)},
		{name: "who", val: scalar[bool]{&cb.KillLeader,
			func(leader bool) string {
				if leader {
					return "leader"
				}
				return "follower"
			},
			func(s string) (bool, error) {
				if s != "leader" && s != "follower" {
					return false, fmt.Errorf("who %q is neither leader nor follower", s)
				}
				return s == "leader", nil
			}}},
		{name: "kill", val: intVal(&cb.KillAtSend)},
		{name: "deliver", val: boolVal(&cb.KillDeliver)},
		{name: "part", val: joined{"+", intVal(&cb.PartAt), intVal(&cb.PartLen)}},
		{name: "inject", val: boolVal(&cb.InjectStale)},
		{name: "fault", val: faultVal(&cb.FaultKind, &cb.FaultAt)},
		{name: "eseed", val: uintVal(&cb.ESeed)},
		{name: "net", val: int64Val(&cb.NetSeed)},
		{name: "reorder", val: reorderVal(&cb.ReorderNum, &cb.ReorderDen)},
	}
}

// Key renders the combo as its canonical replay string.
func (cb ConsensusCombo) Key() string { return encodeKey(cb.fields()) }

// consensusClusterConfig expands the combo into its cluster configuration.
func (cb ConsensusCombo) consensusClusterConfig(prog *ftvm.Program) ConsensusClusterConfig {
	return ConsensusClusterConfig{
		RunConfig:     runConfig(prog, cb.Mode, cb.ProgSeed),
		ConsensusSeed: cb.ESeed,
		Net: simnet.Config{
			Seed:       cb.NetSeed,
			ReorderNum: cb.ReorderNum,
			ReorderDen: cb.ReorderDen,
		},
		Fault:        transport.FaultPlan{Kind: cb.FaultKind, At: cb.FaultAt},
		FaultSeed:    cb.NetSeed ^ 0x0F0F0F0F,
		KillAtSend:   cb.KillAtSend,
		KillLeader:   cb.KillLeader,
		KillDeliver:  cb.KillDeliver,
		PartitionAt:  cb.PartAt,
		PartitionLen: cb.PartLen,
		InjectStale:  cb.InjectStale,
	}
}

// run plays the schedule on the simulated consensus cluster and compares the
// surviving output with the failure-free reference. Beyond output equality
// it asserts the stale-term contract: an injected stale frame must be
// rejected and counted, never acted on.
func (cb ConsensusCombo) run(progs programCache) *Outcome {
	out, prog := startVM(cb.Key(), progs, cb.ProgSeed, cb.Size)
	if out.Err != nil {
		return out
	}
	r, err := RunConsensusCluster(cb.consensusClusterConfig(prog))
	if out.Err = err; err != nil {
		return out
	}
	out.compare(r.Console, "killed=%t recovered=%t leader=%d->%d term=%d records=%d stale=%d malformed=%d vtime=%s console=%d",
		r.Killed, r.Recovered, r.FirstLeader, r.FinalLeader, r.FinalTerm,
		r.RecordsLogged, r.StaleTerms, r.Malformed, r.VirtualElapsed, len(r.Console))
	if cb.InjectStale && r.StaleTerms == 0 {
		out.fail("stale-term frame was injected but never rejected (follower acted on old-term traffic?)")
	}
	return out
}

// ConsensusSweepConfig enumerates the consensus schedule space: for every
// program seed × mode × network seed × election seed, one clean run, leader
// and follower kills per position, healing partition windows on the leader
// lane, one run per link fault, and a stale-injection run.
type ConsensusSweepConfig struct {
	VMSpace
	// KillSends are crash positions in victim protocol sends (default
	// 2, 5, 12 — first appends through mid-stream).
	KillSends []int
	// Partitions are leader-lane suppression windows (default 3+4 and 8+2).
	Partitions [][2]int
	// Faults are link-fault plans for replica 0's endpoints (default a
	// dropped append and a corrupted receive).
	Faults []transport.FaultPlan
	// ESeeds vary the election timeout streams (default {1}).
	ESeeds []uint64
}

// Combos expands the configuration into the full deterministic schedule list.
func (c ConsensusSweepConfig) Combos() []Scenario {
	if len(c.KillSends) == 0 {
		c.KillSends = []int{2, 5, 12}
	}
	if len(c.Partitions) == 0 {
		c.Partitions = [][2]int{{3, 4}, {8, 2}}
	}
	if len(c.Faults) == 0 {
		c.Faults = []transport.FaultPlan{
			{Kind: transport.FaultDropSend, At: 3},
			{Kind: transport.FaultCorruptRecv, At: 2},
		}
	}
	if len(c.ESeeds) == 0 {
		c.ESeeds = []uint64{1}
	}
	var out []Scenario
	c.each(func(prog uint64, mode ftvm.Mode, net int64) {
		for _, es := range c.ESeeds {
			base := ConsensusCombo{
				ProgSeed: prog, Size: c.Size, Mode: mode,
				ESeed: es, NetSeed: net,
				ReorderNum: c.ReorderNum, ReorderDen: c.ReorderDen,
			}
			out = append(out, base) // clean run
			inj := base
			inj.InjectStale = true
			out = append(out, inj)
			for i, kill := range c.KillSends {
				lk := base
				lk.KillLeader = true
				lk.KillAtSend = kill
				lk.KillDeliver = i%2 == 1
				out = append(out, lk)
				fk := base
				fk.KillAtSend = kill
				fk.KillDeliver = i%2 == 0
				out = append(out, fk)
			}
			for _, p := range c.Partitions {
				pc := base
				pc.PartAt, pc.PartLen = p[0], p[1]
				out = append(out, pc)
			}
			for _, f := range c.Faults {
				fc := base
				fc.FaultKind, fc.FaultAt = f.Kind, f.At
				out = append(out, fc)
			}
		}
	})
	return out
}
