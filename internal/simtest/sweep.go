package simtest

import (
	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
)

// Combo is one point of the pair sweep: a generated program, a replication
// mode, and a fault schedule (a kill position, a channel fault, a network
// seed, and a reorder chance). Its key looks like
//
//	prog=7,size=small,mode=sched,kill=12,deliver=1,fault=none@0,net=3,reorder=1/8
type Combo struct {
	ProgSeed    uint64
	Size        fuzzgen.Size
	Mode        ftvm.Mode
	KillAtSend  int // 0 = no kill
	KillDeliver bool
	FaultKind   transport.FaultKind
	FaultAt     int
	NetSeed     int64
	ReorderNum  int // chance a message skips FIFO clamping, as Num in Den
	ReorderDen  int
	// Dispatch selects the interpreter engine for the primary and any
	// recovery VM (default threaded). The epoch-edge regression entries pin
	// both engines against the same fault schedules.
	Dispatch ftvm.Dispatch
	// Capture, when non-empty, writes the backup's replication log to this
	// path as a .ftlog for ftvm-debug. Not part of the replay key: it never
	// changes the schedule, only what is written to disk afterwards.
	Capture string
}

func (cb *Combo) fields() []field {
	return []field{
		{name: "prog", val: uintVal(&cb.ProgSeed)},
		{name: "size", val: sizeVal(&cb.Size)},
		{name: "mode", val: modeVal(&cb.Mode)},
		{name: "kill", val: intVal(&cb.KillAtSend)},
		{name: "deliver", val: boolVal(&cb.KillDeliver)},
		{name: "fault", val: faultVal(&cb.FaultKind, &cb.FaultAt)},
		{name: "net", val: int64Val(&cb.NetSeed)},
		{name: "reorder", val: reorderVal(&cb.ReorderNum, &cb.ReorderDen)},
		// Rendered only when non-default, so every historical replay string
		// renders (and replays) unchanged.
		{name: "dispatch", val: dispatchVal(&cb.Dispatch), omit: ftvm.DispatchThreaded.String()},
	}
}

// Key renders the combo as its canonical replay string.
func (cb Combo) Key() string { return encodeKey(cb.fields()) }

// clusterConfig expands the combo into the cluster configuration it denotes.
func (cb Combo) clusterConfig(prog *ftvm.Program) ClusterConfig {
	return ClusterConfig{
		RunConfig: runConfig(prog, cb.Mode, cb.ProgSeed),
		Net: simnet.Config{
			Seed:       cb.NetSeed,
			ReorderNum: cb.ReorderNum,
			ReorderDen: cb.ReorderDen,
		},
		Fault:       transport.FaultPlan{Kind: cb.FaultKind, At: cb.FaultAt},
		FaultSeed:   cb.NetSeed ^ 0x0F0F0F0F,
		KillAtSend:  cb.KillAtSend,
		KillDeliver: cb.KillDeliver,
		Dispatch:    cb.Dispatch,
		Capture:     cb.Capture,
	}
}

// run plays the schedule on the simulated pair and compares per-writer
// output streams with the failure-free reference.
func (cb Combo) run(progs programCache) *Outcome {
	out, prog := startVM(cb.Key(), progs, cb.ProgSeed, cb.Size)
	if out.Err != nil {
		return out
	}
	r, err := RunCluster(cb.clusterConfig(prog))
	if out.Err = err; err != nil {
		return out
	}
	out.compare(r.Console, "outcome=%q killed=%t recovered=%t records=%d vtime=%s console=%d",
		r.Outcome, r.Killed, r.Recovered, r.RecordsLogged, r.VirtualElapsed, len(r.Console))
	return out
}

// SweepConfig enumerates the pair schedule space: for every program seed ×
// replication mode × network seed, one clean run, one crash per kill
// position (alternating whether the final frame escapes), and one run per
// channel fault.
type SweepConfig struct {
	VMSpace
	// KillSends are the crash positions in primary frame sends
	// (default 1, 3, 8, 20).
	KillSends []int
	// Faults are the channel-fault plans (default drop/dup/partition-send
	// early and mid-run). A FaultNone entry is a clean run and is implied.
	Faults []transport.FaultPlan
}

// Combos expands the configuration into the full deterministic schedule list.
func (c SweepConfig) Combos() []Scenario {
	if len(c.KillSends) == 0 {
		c.KillSends = []int{1, 3, 8, 20}
	}
	if len(c.Faults) == 0 {
		c.Faults = []transport.FaultPlan{
			{Kind: transport.FaultDropSend, At: 2},
			{Kind: transport.FaultDuplicateSend, At: 3},
			{Kind: transport.FaultPartitionSend, At: 5},
			{Kind: transport.FaultPartialSend, At: 4},
		}
	}
	var out []Scenario
	c.each(func(prog uint64, mode ftvm.Mode, net int64) {
		base := Combo{
			ProgSeed: prog, Size: c.Size, Mode: mode, NetSeed: net,
			ReorderNum: c.ReorderNum, ReorderDen: c.ReorderDen,
		}
		out = append(out, base) // clean run
		for i, kill := range c.KillSends {
			cb := base
			cb.KillAtSend = kill
			cb.KillDeliver = i%2 == 1
			out = append(out, cb)
		}
		for _, f := range c.Faults {
			cb := base
			cb.FaultKind, cb.FaultAt = f.Kind, f.At
			out = append(out, cb)
		}
	})
	return out
}
