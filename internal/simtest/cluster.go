// Package simtest is the deterministic simulation harness: it runs a complete
// primary/backup replication pair inside one process on a virtual clock
// (internal/simtest/clock) over a seeded simulated network
// (internal/simtest/simnet), so that an entire fault schedule — who crashed,
// at which exact frame, with which message delays and losses — is a pure
// function of a handful of seeds. A sweep over hundreds of kill points and
// fault schedules (see Sweep) completes in seconds of wall time, and any
// failure reproduces from the single combo string the sweep prints.
//
// The style follows FoundationDB's simulation testing: virtual time advances
// only when every participant is blocked, all nondeterminism is drawn from
// seeded PRNGs, and the assertion is the paper's exactly-once contract —
// whatever the schedule does, the recovered execution's observable output
// matches the failure-free reference.
package simtest

import (
	"errors"
	"fmt"
	"sync"
	"time"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/vm"
)

// RunConfig is the VM-run part every cluster config shares: the workload,
// its seeds and quanta, the frame batching and the run's bounds.
type RunConfig struct {
	// Program is the compiled workload (required).
	Program *ftvm.Program
	// Mode is the replica-coordination mode (required).
	Mode ftvm.Mode

	// EnvSeed / PolicySeed seed the shared environment and the primary's
	// scheduling policy; RecoverSeed seeds the deliberately different
	// recovery policy (defaults 1234 / 77 / 4242, the sweep-test set).
	EnvSeed, PolicySeed, RecoverSeed int64
	// MinQuantum/MaxQuantum bound the primary's scheduling quantum
	// (defaults 64/512 — small, to stress interleavings); the recovery
	// policy uses RecoverMinQ/RecoverMaxQ (defaults 100/900).
	MinQuantum, MaxQuantum   uint64
	RecoverMinQ, RecoverMaxQ uint64
	// FlushEvery batches log records per frame or proposed entry (default 4:
	// many frames, so kill points land mid-protocol).
	FlushEvery int

	// MaxInstructions bounds every execution (default 50M).
	MaxInstructions uint64
	// WallLimit is the real-time watchdog on the whole simulation
	// (default 30s): a scheduling bug panics instead of hanging the sweep.
	WallLimit time.Duration
}

func (c *RunConfig) fill() error {
	if c.Program == nil {
		return errors.New("simtest: nil program")
	}
	if c.EnvSeed == 0 {
		c.EnvSeed = 1234
	}
	if c.PolicySeed == 0 {
		c.PolicySeed = 77
	}
	if c.RecoverSeed == 0 {
		c.RecoverSeed = 4242
	}
	if c.MinQuantum == 0 {
		c.MinQuantum = 64
	}
	if c.MaxQuantum < c.MinQuantum {
		c.MaxQuantum = c.MinQuantum * 8
	}
	if c.RecoverMinQ == 0 {
		c.RecoverMinQ = 100
	}
	if c.RecoverMaxQ < c.RecoverMinQ {
		c.RecoverMaxQ = c.RecoverMinQ * 9
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 4
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 50_000_000
	}
	if c.WallLimit == 0 {
		c.WallLimit = 30 * time.Second
	}
	return nil
}

// simulate runs body as a clock actor on a fresh virtual clock, under a
// real-time watchdog, and returns when it does. The calling goroutine is not
// an actor, so it may join with a plain WaitGroup without stalling virtual
// time.
func simulate(wallLimit time.Duration, body func(clk *clock.Virtual)) {
	clk := clock.NewVirtual()
	defer clk.Watchdog(wallLimit)()
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		body(clk)
	})
	wg.Wait()
}

// ClusterConfig describes one simulated primary/backup run.
type ClusterConfig struct {
	RunConfig

	// Net shapes the simulated link (Net.Seed drives latency and reorder
	// draws; zero delays get simnet's defaults).
	Net simnet.Config
	// Fault optionally wraps the primary's endpoint in a transport fault
	// (drop/dup/partition/close...), injected at a deterministic operation
	// index with FaultSeed jitter — the channel-misbehaves axis.
	Fault     transport.FaultPlan
	FaultSeed int64

	// KillAtSend > 0 crashes the primary process at its KillAtSend-th
	// message offered to the link (1-based, counted below the fault wrapper)
	// — the process-dies axis, positioned exactly rather than by polling.
	// KillDeliver lets that final message escape onto the wire (a crash just
	// after the write); otherwise it dies mid-send and the frame is lost.
	KillAtSend  int
	KillDeliver bool

	// Heartbeat / AckTimeout / FailureTimeout are the liveness knobs, in
	// virtual time (defaults 0 / 10ms / 50ms — both detectors armed, so
	// every schedule terminates without real waiting).
	Heartbeat      time.Duration
	AckTimeout     time.Duration
	FailureTimeout time.Duration

	// Dispatch selects the interpreter engine for the primary and the
	// recovery VM (default threaded, like every production path).
	Dispatch ftvm.Dispatch

	// Capture, when non-empty, writes the backup's replication log as a
	// durable .ftlog file (see replication.EncodeLog) after the schedule
	// plays out, seeded with the recovery-policy parameters so ftvm-debug
	// replays the exact execution the backup would reconstruct. Not part of
	// the combo key: it changes what is written to disk, never the run.
	Capture string
}

func (c *ClusterConfig) fill() error {
	if c.AckTimeout == 0 {
		c.AckTimeout = 10 * time.Millisecond
	}
	if c.FailureTimeout == 0 {
		c.FailureTimeout = 50 * time.Millisecond
	}
	return c.RunConfig.fill()
}

// ClusterResult reports what one simulated schedule did. Every field is a
// deterministic function of the config (including VirtualElapsed, which is
// simulated — not wall — time), so results can be compared byte-for-byte
// across runs.
type ClusterResult struct {
	// Outcome is the backup's serve verdict; Killed whether the kill landed
	// before clean completion; Recovered whether the backup ran recovery.
	Outcome   replication.ServeOutcome
	Killed    bool
	Recovered bool
	// Console is the observable output after the schedule fully played out
	// (primary's if it completed, the recovered execution's otherwise).
	Console []string
	// RecordsLogged is the backup's log length at takeover (0 if clean).
	RecordsLogged int
	// PrimaryErr is the primary run's error verbatim (ErrBackupLost is
	// expected on many schedules and is not a harness failure).
	PrimaryErr error
	// Recovery is the backup's report when Recovered.
	Recovery *replication.RecoveryReport
	// VirtualElapsed is total simulated time from first instruction to the
	// end of recovery.
	VirtualElapsed time.Duration

	// backup and environ are retained for in-package tests that poke at the
	// promoted replica after the schedule ends (e.g. double takeover).
	backup  *replication.Backup
	environ *env.Env
}

// RunCluster plays one schedule to completion on a fresh virtual clock and
// returns the deterministic result. An error means the harness or the
// replication contract broke (e.g. the backup saw a clean halt but the
// primary failed for a reason other than a lost backup), not merely that the
// injected failure fired.
func RunCluster(cfg ClusterConfig) (res *ClusterResult, err error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	simulate(cfg.WallLimit, func(clk *clock.Virtual) { res, err = runCluster(clk, &cfg) })
	return res, err
}

func runCluster(clk *clock.Virtual, cfg *ClusterConfig) (*ClusterResult, error) {
	environ := env.New(cfg.EnvSeed)
	pRaw, bEnd := simnet.Link(clk, cfg.Net)
	var pEnd transport.Endpoint = pRaw
	if cfg.Fault.Kind != transport.FaultNone {
		pEnd = transport.NewFaultyClock(pRaw, cfg.Fault, cfg.FaultSeed, clk)
	}

	primary, err := replication.NewPrimary(replication.PrimaryConfig{
		Mode:           cfg.Mode,
		Endpoint:       pEnd,
		Policy:         vm.NewSeededPolicy(cfg.PolicySeed, cfg.MinQuantum, cfg.MaxQuantum),
		FlushEvery:     cfg.FlushEvery,
		HeartbeatEvery: cfg.Heartbeat,
		AckTimeout:     cfg.AckTimeout,
		Clock:          clk,
	})
	if err != nil {
		return nil, err
	}
	machine, err := vm.New(vm.Config{
		Program:         cfg.Program,
		Env:             environ,
		Coordinator:     primary,
		MaxInstructions: cfg.MaxInstructions,
		TrackProgress:   cfg.Mode == ftvm.ModeSched,
		Dispatch:        cfg.Dispatch,
	})
	if err != nil {
		return nil, err
	}
	backup, err := replication.NewBackup(replication.BackupConfig{
		Mode:           cfg.Mode,
		Endpoint:       bEnd,
		FailureTimeout: cfg.FailureTimeout,
		Clock:          clk,
	})
	if err != nil {
		return nil, err
	}

	if cfg.KillAtSend > 0 {
		deliver := cfg.KillDeliver
		at := cfg.KillAtSend
		pRaw.SetSendHook(func(n int, _ []byte) bool {
			if n < at {
				return true
			}
			if n == at {
				machine.Kill() // atomic flag; safe under the link lock
				return deliver
			}
			return false // dead processes send nothing
		})
	}

	serveDone := clock.NewFlag(clk)
	var outcome replication.ServeOutcome
	var serveErr error
	clk.Go(func() {
		defer serveDone.Set()
		outcome, serveErr = backup.Serve()
		if outcome.Failed() {
			// A real takeover tears the channel down; this also unblocks a
			// primary still parked on an ack for a swallowed frame.
			_ = bEnd.Close()
		}
	})

	t0 := clk.Now()
	runErr := machine.Run()
	serveDone.Wait()

	res := &ClusterResult{
		Outcome:       outcome,
		Killed:        machine.Killed(),
		Console:       environ.Console().Lines(),
		RecordsLogged: backup.Store().Len(),
		PrimaryErr:    runErr,
		backup:        backup,
		environ:       environ,
	}
	if cfg.Capture != "" {
		err := replication.WriteLogFile(cfg.Capture, replication.LogHeader{
			EnvSeed:         cfg.EnvSeed,
			PolicySeed:      cfg.RecoverSeed,
			MinQuantum:      cfg.RecoverMinQ,
			MaxQuantum:      cfg.RecoverMaxQ,
			Mode:            cfg.Mode,
			Dispatch:        cfg.Dispatch,
			MaxInstructions: cfg.MaxInstructions,
		}, cfg.Program, backup.Store().Records())
		if err != nil {
			return res, fmt.Errorf("capture log: %w", err)
		}
	}
	if serveErr != nil {
		return res, fmt.Errorf("backup serve: %w", serveErr)
	}
	if runErr != nil && !machine.Killed() && !errors.Is(runErr, replication.ErrBackupLost) {
		return res, fmt.Errorf("primary run: %w", runErr)
	}

	if outcome == replication.OutcomePrimaryCompleted {
		// Last-ack window: a schedule can eat the final halt-sync ack, so
		// the backup sees a clean halt while the primary reports the backup
		// lost. The console is complete either way (the halt marker only
		// ships after every output commit).
		res.VirtualElapsed = clk.Since(t0)
		return res, nil
	}
	if !outcome.Failed() {
		return res, fmt.Errorf("backup outcome %v with primary err %v", outcome, runErr)
	}

	res.Recovered = true
	_, report, err := backup.Recover(replication.RecoverConfig{
		Program:         cfg.Program,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(cfg.RecoverSeed, cfg.RecoverMinQ, cfg.RecoverMaxQ),
		MaxInstructions: cfg.MaxInstructions,
		Dispatch:        cfg.Dispatch,
	})
	res.VirtualElapsed = clk.Since(t0)
	res.Recovery = report
	res.Console = environ.Console().Lines()
	if err != nil {
		return res, fmt.Errorf("recovery after %v: %w", outcome, err)
	}
	return res, nil
}
