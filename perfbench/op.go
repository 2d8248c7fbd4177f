package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bytecode"
	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// counts are an op's deterministic counters: every op of a run must repeat
// them exactly.
type counts struct {
	Instructions, Branches, LocksAcquired, NativeCalls, OutputCommits, Reschedules uint64

	Records, Frames, Bytes, Acks, HookCalls uint64

	FedResults, Reinvoked, Tested, Skipped, ReplayedSwitches, GatedWakeups uint64
}

// opResult is what one op measured.
type opResult struct {
	exec, takeover time.Duration
	commits        []time.Duration
	allocBytes     uint64
	counts         counts
	entries        uint64 // consensus: the leader's log length
	elections      uint64 // consensus: campaigns over all replicas
	trace          *opTrace
}

// bench is one workload, set up.
type bench struct {
	w     workload
	prog  *bytecode.Program
	seeds seeds
	ref   *reference
	// first holds the counts of the run's first untraced and first traced
	// op; every later op of the same kind must match them.
	first     [2]*counts
	origin    time.Time
	ops       int
	setupDurs []time.Duration
}

// pipeCapacity sizes the in-process pair link (the repository default).
const pipeCapacity = 1024

// leaderWait bounds the election wait before a quorum op.
const leaderWait = 10 * time.Second

// op runs one replicated execution to the halt, then a cold takeover from
// the log the backup (or quorum) holds, and checks both. With traced set,
// it also times every primary hook and the backup's receive waits.
func (b *bench) op(traced bool) (*opResult, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ops++
	tr := newOpTrace(b.ops, b.origin)
	res, err := b.execute(tr, traced)
	if err != nil {
		return nil, fmt.Errorf("op %d: %w", b.ops, err)
	}
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.trace = tr
	kind := 0
	if traced {
		kind = 1
	}
	if b.first[kind] == nil {
		c := res.counts
		b.first[kind] = &c
	} else if res.counts != *b.first[kind] {
		return nil, fmt.Errorf("op %d: counters %+v differ from the run's first op %+v", b.ops, res.counts, *b.first[kind])
	}
	return res, nil
}

func (b *bench) execute(tr *opTrace, traced bool) (*opResult, error) {
	res := &opResult{}
	root := tr.begin("op", 0)
	defer tr.end(root)
	records, err := b.replicate(tr, root, traced, res)
	if err != nil {
		return nil, err
	}
	if err := b.takeOver(tr, root, records, res); err != nil {
		return nil, err
	}
	return res, nil
}

// replicate runs the primary to the halt over the workload's backend,
// checks it, and returns the log the backup or quorum holds.
func (b *bench) replicate(tr *opTrace, root int, traced bool, res *opResult) ([]wire.Record, error) {
	w, s := b.w, b.seeds
	sp := tr.begin("replication.setup", root)
	environ := env.New(s.Env)
	var (
		plink   *primaryLink
		blink   *backupLink
		backup  *replication.Backup
		cluster *consensus.Cluster
		leader  *consensus.Replica
		ship    *shipProbe
		pcfg    = replication.PrimaryConfig{Mode: w.mode, Policy: vm.NewSeededPolicy(s.Policy, minQuantum, maxQuantum)}
	)
	if w.quorum {
		var err error
		cluster, err = consensus.NewCluster(consensus.Config{Seed: s.Consensus})
		if err != nil {
			return nil, err
		}
		cluster.Start()
		defer cluster.Stop()
		if leader, err = cluster.WaitLeader(leaderWait); err != nil {
			return nil, err
		}
		ship = &shipProbe{CoordinationBackend: consensus.NewBackend(leader, 0)}
		pcfg.Backend = ship
	} else {
		pEnd, bEnd := transport.Pipe(pipeCapacity)
		plink = &primaryLink{Endpoint: pEnd}
		pcfg.Endpoint = plink
		if traced {
			blink = &backupLink{Endpoint: bEnd}
			bEnd = blink
		}
		var err error
		if backup, err = replication.NewBackup(replication.BackupConfig{Mode: w.mode, Endpoint: bEnd}); err != nil {
			return nil, err
		}
	}
	primary, err := replication.NewPrimary(pcfg)
	if err != nil {
		return nil, err
	}
	var coord vm.Coordinator = primary
	var hooks *timedCoordinator
	if traced {
		hooks = &timedCoordinator{inner: primary}
		coord = hooks
	}
	tr.end(sp)

	sp = tr.begin("vm.new", root)
	machine, err := vm.New(vm.Config{Program: b.prog, Env: environ, Coordinator: coord, TrackProgress: w.mode == replication.ModeSched})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	// Exec: from vm.Run to the backup (pair) or quorum (consensus: the
	// halt's majority commit returns inside Run) holding the halt.
	var serve acc
	serveDone := make(chan struct{})
	var outcome replication.ServeOutcome
	var serveErr error
	if backup != nil {
		go func() {
			defer close(serveDone)
			t0 := clock.Real.Now()
			outcome, serveErr = backup.Serve()
			serve.add(t0, clock.Real.Since(t0))
		}()
	} else {
		close(serveDone)
	}
	run := tr.begin("vm.run", root)
	runErr := machine.Run()
	res.exec = tr.end(run)
	sp = tr.begin("replication.backup.halt_wait", root)
	<-serveDone
	res.exec += tr.end(sp)

	if traced {
		hook := tr.fold("replication.primary.hook", run, hooks.hooks, false)
		if plink != nil {
			tr.fold("transport.send", hook, plink.send, false)
			tr.fold("transport.ack_wait", hook, plink.recv, false)
			sv := tr.fold("replication.backup.serve", root, serve, true)
			tr.fold("replication.backup.recv_wait", sv, blink.recv, true)
			tr.fold("replication.backup.ack_send", sv, blink.send, true)
		} else {
			tr.fold("consensus.ship_async", hook, ship.async, false)
			tr.fold("consensus.ship_commit", hook, ship.commit, false)
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("primary run: %w", runErr)
	}
	if serveErr != nil {
		return nil, fmt.Errorf("backup serve: %w", serveErr)
	}

	sp = tr.begin("check.primary", root)
	stats := machine.Stats()
	pm := primary.Metrics()
	c := &res.counts
	c.Instructions, c.Branches, c.LocksAcquired = stats.Instructions, stats.Branches, stats.LocksAcquired
	c.NativeCalls, c.OutputCommits, c.Reschedules = stats.NativeCalls, stats.NMOutputCommits, stats.Reschedules
	c.Records, c.Frames, c.Bytes, c.Acks = pm.RecordsLogged, pm.FramesSent, pm.BytesSent, pm.AcksAwaited
	if hooks != nil {
		c.HookCalls = uint64(hooks.hooks.calls)
	}
	err = b.ref.check("primary", environ.Console().Lines(), stats.Instructions)
	if err == nil {
		if plink != nil {
			res.commits = plink.commits
			err = crossCheckPair(pm, backup, plink, outcome)
		} else {
			res.commits = ship.commits
			err = crossCheckShip(pm, ship)
		}
	}
	// One commit per output, plus the halt's.
	if err == nil && uint64(len(res.commits)) != stats.NMOutputCommits+1 {
		err = fmt.Errorf("measured %d output commits, VM counted %d outputs + halt", len(res.commits), stats.NMOutputCommits)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	if cluster == nil {
		sp = tr.begin("replication.backup.records", root)
		records := backup.Store().Records()
		tr.end(sp)
		return records, nil
	}
	sp = tr.begin("consensus.committed_records", root)
	records, err := cluster.CommittedRecords(leader.ID())
	if err == nil && uint64(len(records)) != pm.RecordsLogged {
		err = fmt.Errorf("quorum committed %d records, primary logged %d", len(records), pm.RecordsLogged)
	}
	res.entries = uint64(leader.Snapshot().LogLen)
	for i := 0; i < cluster.Size(); i++ {
		res.elections += cluster.Replica(i).Snapshot().Elections
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("consensus.stop", root)
	cluster.Stop()
	tr.end(sp)
	return records, nil
}

// takeOver is the cold takeover: a fresh backup loads the log (the halt is
// stripped, so the primary died after its last record) and recovers to
// completion against a fresh environment.
func (b *bench) takeOver(tr *opTrace, root int, records []wire.Record, res *opResult) error {
	environ := env.New(b.seeds.Env)
	sp := tr.begin("replication.backup.load", root)
	cold, err := replication.NewBackup(replication.BackupConfig{Mode: b.w.mode, Endpoint: nopEndpoint{}})
	if err == nil {
		err = cold.LoadRecords(records)
	}
	res.takeover = tr.end(sp)
	if err != nil {
		return fmt.Errorf("takeover load: %w", err)
	}
	sp = tr.begin("replication.backup.recover", root)
	recovered, report, err := cold.Recover(replication.RecoverConfig{
		Program: b.prog,
		Env:     environ,
		Policy:  vm.NewSeededPolicy(b.seeds.Policy^recoveryPolicyMix, minQuantum, maxQuantum),
	})
	res.takeover += tr.end(sp)
	if err != nil {
		return fmt.Errorf("takeover recover: %w", err)
	}

	sp = tr.begin("check.takeover", root)
	defer tr.end(sp)
	c := &res.counts
	c.FedResults, c.Reinvoked, c.Tested, c.Skipped = report.FedResults, report.Reinvoked, report.TestedOutputs, report.SkippedOutputs
	c.ReplayedSwitches, c.GatedWakeups = report.ReplayedSwitches, report.GatedWakeups
	if err := b.ref.check("takeover", environ.Console().Lines(), recovered.Stats().Instructions); err != nil {
		return err
	}
	if report.RecordsInLog != len(records)-1 {
		return fmt.Errorf("takeover analysed %d records, log held %d plus the halt", report.RecordsInLog, len(records)-1)
	}
	return nil
}

// crossCheckPair compares what crossed the primary's endpoint with the
// primary's and the backup's own counters.
func crossCheckPair(pm replication.PrimaryMetrics, backup *replication.Backup, link *primaryLink, outcome replication.ServeOutcome) error {
	bs := backup.Stats()
	switch {
	case outcome != replication.OutcomePrimaryCompleted:
		return fmt.Errorf("backup saw %v, want a completed primary", outcome)
	case uint64(link.send.calls) != pm.FramesSent || pm.FramesSent != bs.FramesReceived:
		return fmt.Errorf("frames: %d at the endpoint, primary sent %d, backup received %d", link.send.calls, pm.FramesSent, bs.FramesReceived)
	case link.bytes != pm.BytesSent:
		return fmt.Errorf("bytes: %d at the endpoint, primary sent %d", link.bytes, pm.BytesSent)
	case uint64(backup.Store().Len()) != pm.RecordsLogged || bs.RecordsLogged != pm.RecordsLogged:
		return fmt.Errorf("records: backup stored %d, primary logged %d", backup.Store().Len(), pm.RecordsLogged)
	case uint64(len(link.commits)) != pm.AcksAwaited || bs.AcksSent != pm.AcksAwaited:
		return fmt.Errorf("acks: %d matched at the endpoint, primary awaited %d, backup sent %d", len(link.commits), pm.AcksAwaited, bs.AcksSent)
	}
	return nil
}

// crossCheckShip compares what crossed the consensus backend with the
// primary's counters.
func crossCheckShip(pm replication.PrimaryMetrics, p *shipProbe) error {
	switch {
	case uint64(p.async.calls+p.commit.calls) != pm.FramesSent:
		return fmt.Errorf("ships: %d at the backend, primary sent %d frames", p.async.calls+p.commit.calls, pm.FramesSent)
	case p.bytes != pm.BytesSent:
		return fmt.Errorf("bytes: %d at the backend, primary sent %d", p.bytes, pm.BytesSent)
	case uint64(p.commit.calls) != pm.AcksAwaited:
		return fmt.Errorf("commits: %d at the backend, primary awaited %d", p.commit.calls, pm.AcksAwaited)
	}
	return nil
}

// standalone runs the program unreplicated, with or
// without the per-bytecode progress bookkeeping thread-scheduling
// replication needs, and returns Run's time.
func (b *bench) standalone(track bool) (time.Duration, error) {
	runtime.GC()
	environ := env.New(b.seeds.Env)
	machine, err := vm.New(vm.Config{
		Program:       b.prog,
		Env:           environ,
		Coordinator:   vm.NewDefaultCoordinator(vm.NewSeededPolicy(b.seeds.Policy, minQuantum, maxQuantum)),
		TrackProgress: track,
	})
	if err != nil {
		return 0, err
	}
	t0 := clock.Real.Now()
	err = machine.Run()
	d := clock.Real.Since(t0)
	if err == nil {
		err = b.ref.check("standalone", environ.Console().Lines(), machine.Stats().Instructions)
	}
	return d, err
}

// nopEndpoint is the transport of an offline backup that only recovers.
type nopEndpoint struct{}

func (nopEndpoint) Send([]byte) error                  { return nil }
func (nopEndpoint) Recv(time.Duration) ([]byte, error) { return nil, transport.ErrClosed }
func (nopEndpoint) Close() error                       { return nil }
