package simtest

import (
	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
)

// ViewCombo is one point of the three-node sweep: a generated program, a
// mode, and a two-stage fault schedule — where the first primary dies, where
// the promoted one dies, what the new pair's channel does, and whether a
// stale-epoch straggler probes the recruit. Its key looks like
//
//	prog=7,size=small,mode=sched,kill1=3,d1=0,kill2=5,d2=1,fault=none@0,inject=1,net=3,reorder=1/8
type ViewCombo struct {
	ProgSeed     uint64
	Size         fuzzgen.Size
	Mode         ftvm.Mode
	Kill1AtSend  int // 0 = first primary never killed (clean pair run)
	Kill1Deliver bool
	Kill2AtSend  int // 0 = promoted primary never killed
	Kill2Deliver bool
	FaultKind    transport.FaultKind // on the promoted pair's channel
	FaultAt      int
	InjectStale  bool
	NetSeed      int64
	ReorderNum   int
	ReorderDen   int
}

func (cb *ViewCombo) fields() []field {
	return []field{
		{name: "prog", val: uintVal(&cb.ProgSeed)},
		{name: "size", val: sizeVal(&cb.Size)},
		{name: "mode", val: modeVal(&cb.Mode)},
		{name: "kill1", val: intVal(&cb.Kill1AtSend)},
		{name: "d1", val: boolVal(&cb.Kill1Deliver)},
		{name: "kill2", val: intVal(&cb.Kill2AtSend)},
		{name: "d2", val: boolVal(&cb.Kill2Deliver)},
		{name: "fault", val: faultVal(&cb.FaultKind, &cb.FaultAt)},
		{name: "inject", val: boolVal(&cb.InjectStale)},
		{name: "net", val: int64Val(&cb.NetSeed)},
		{name: "reorder", val: reorderVal(&cb.ReorderNum, &cb.ReorderDen)},
	}
}

// Key renders the combo as its canonical replay string.
func (cb ViewCombo) Key() string { return encodeKey(cb.fields()) }

// viewClusterConfig expands the combo into the cluster configuration it
// denotes.
func (cb ViewCombo) viewClusterConfig(prog *ftvm.Program) ViewClusterConfig {
	return ViewClusterConfig{
		RunConfig: runConfig(prog, cb.Mode, cb.ProgSeed),
		Net: simnet.Config{
			Seed:       cb.NetSeed,
			ReorderNum: cb.ReorderNum,
			ReorderDen: cb.ReorderDen,
		},
		Fault:        transport.FaultPlan{Kind: cb.FaultKind, At: cb.FaultAt},
		FaultSeed:    cb.NetSeed ^ 0x0F0F0F0F,
		Kill1AtSend:  cb.Kill1AtSend,
		Kill1Deliver: cb.Kill1Deliver,
		Kill2AtSend:  cb.Kill2AtSend,
		Kill2Deliver: cb.Kill2Deliver,
		InjectStale:  cb.InjectStale,
	}
}

// run plays the schedule on the simulated three-node cluster and compares
// the surviving output with the failure-free reference. Beyond output
// equality it asserts the epoch contract: when a stale frame was injected
// into a promoted configuration, the recruit must have dropped at least one
// stale-epoch frame.
func (cb ViewCombo) run(progs programCache) *Outcome {
	out, prog := startVM(cb.Key(), progs, cb.ProgSeed, cb.Size)
	if out.Err != nil {
		return out
	}
	r, err := RunViewCluster(cb.viewClusterConfig(prog))
	if out.Err = err; err != nil {
		return out
	}
	out.compare(r.Console, "view=%d killed1=%t promoted=%t killed2=%t takeover2=%t records2=%d records3=%d stale=%d vtime=%s console=%d",
		r.FinalView.Num, r.Killed1, r.Promoted, r.Killed2, r.SecondTakeover,
		r.Records2, r.Records3, r.StaleEpochs, r.VirtualElapsed, len(r.Console))
	if r.StaleInjected && r.StaleEpochs == 0 {
		out.fail("stale-epoch frame was injected but never dropped (recruit acked old-epoch traffic?)")
	}
	return out
}

// ViewSweepConfig enumerates the two-stage schedule space: for every program
// seed × mode × network seed, one clean run, then for each first-kill
// position a promotion-only run, a stale-injection run, one run per
// second-kill position, and one per channel fault on the promoted pair.
type ViewSweepConfig struct {
	VMSpace
	// Kill1Sends are first-primary crash positions (default 1, 3, 8).
	Kill1Sends []int
	// Kill2Sends are promoted-primary crash positions, counted on the new
	// pair's link where snapshot frames come first (default 1, 2, 6 —
	// mid-transfer through mid-tail).
	Kill2Sends []int
	// Faults are channel-fault plans for the promoted pair (default a
	// corrupted ack during transfer and a partition mid-tail).
	Faults []transport.FaultPlan
}

// Combos expands the configuration into the full deterministic schedule list.
func (c ViewSweepConfig) Combos() []Scenario {
	if len(c.Kill1Sends) == 0 {
		c.Kill1Sends = []int{1, 3, 8}
	}
	if len(c.Kill2Sends) == 0 {
		c.Kill2Sends = []int{1, 2, 6}
	}
	if len(c.Faults) == 0 {
		c.Faults = []transport.FaultPlan{
			{Kind: transport.FaultCorruptRecv, At: 1},
			{Kind: transport.FaultPartitionSend, At: 4},
		}
	}
	var out []Scenario
	c.each(func(prog uint64, mode ftvm.Mode, net int64) {
		base := ViewCombo{
			ProgSeed: prog, Size: c.Size, Mode: mode, NetSeed: net,
			ReorderNum: c.ReorderNum, ReorderDen: c.ReorderDen,
		}
		out = append(out, base) // clean run, no view change
		for i, k1 := range c.Kill1Sends {
			v := base
			v.Kill1AtSend = k1
			v.Kill1Deliver = i%2 == 1
			out = append(out, v) // promotion + transfer, no second failure
			inj := v
			inj.InjectStale = true
			out = append(out, inj)
			for j, k2 := range c.Kill2Sends {
				vv := v
				vv.Kill2AtSend = k2
				vv.Kill2Deliver = j%2 == 0
				vv.InjectStale = j%2 == 1 // stale straggler racing a dying promoted primary
				out = append(out, vv)
			}
			for _, f := range c.Faults {
				vf := v
				vf.FaultKind, vf.FaultAt = f.Kind, f.At
				out = append(out, vf)
			}
		}
	})
	return out
}
