package simtest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/viewsvc"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Node names of the simulated three-node replica set. View 1 pairs n1
// (primary) with n2 (backup); n3 idles until a failure recruits it.
const (
	nodeA = "n1"
	nodeB = "n2"
	nodeC = "n3"
)

// ViewClusterConfig describes one simulated three-node schedule: a view
// service forms {n1 primary, n2 backup, n3 idle}; killing n1 promotes n2,
// which recruits n3 through a snapshot + live-tail state transfer under the
// next epoch; killing n2 mid-transfer or mid-tail leaves n3 to run the final
// recovery alone. Surviving the whole schedule with reference-identical
// output is the n−1 sequential-failure claim of the view-change design.
type ViewClusterConfig struct {
	RunConfig

	// Net shapes both simulated links; the second (n2→n3) link folds a
	// constant into the seed so the two channels draw different schedules
	// from one knob.
	Net simnet.Config
	// Fault optionally wraps the *promoted* primary's endpoint toward the
	// recruit — channel misbehaviour on the new pair, including corrupting
	// the acks the state transfer depends on (FaultCorruptRecv).
	Fault     transport.FaultPlan
	FaultSeed int64

	// Kill1AtSend crashes n1 at its Kill1AtSend-th message on the first link
	// (1-based, 0 = never); Kill1Deliver lets the final frame escape.
	Kill1AtSend  int
	Kill1Deliver bool
	// Kill2AtSend crashes the promoted n2 at its Kill2AtSend-th message on
	// the second link — snapshot frames count, so small values die
	// mid-transfer and larger ones mid-tail.
	Kill2AtSend  int
	Kill2Deliver bool

	// InjectStale, when set, delivers a stale epoch-1 frame to n3 right
	// after the state transfer — a deposed primary's straggler. The recruit
	// must drop it without acknowledging (ViewClusterResult.StaleEpochs).
	InjectStale bool

	// Liveness knobs in virtual time (defaults 0 / 10ms / 50ms).
	Heartbeat      time.Duration
	AckTimeout     time.Duration
	FailureTimeout time.Duration
}

func (c *ViewClusterConfig) fill() error {
	if c.AckTimeout == 0 {
		c.AckTimeout = 10 * time.Millisecond
	}
	if c.FailureTimeout == 0 {
		c.FailureTimeout = 50 * time.Millisecond
	}
	return c.RunConfig.fill()
}

// ViewClusterResult reports what one three-node schedule did. Every field is
// a deterministic function of the config.
type ViewClusterResult struct {
	// FinalView is the configuration the schedule ended in.
	FinalView viewsvc.View
	// Outcome1 is n2's serve verdict for view 1; Killed1 whether the first
	// kill landed before n1 completed.
	Outcome1 replication.ServeOutcome
	Killed1  bool
	// Promoted reports that n2 took over (view 2) and ran the state-transfer
	// promotion toward n3.
	Promoted bool
	// Outcome2 is n3's serve verdict for view 2 (zero value if no
	// promotion); Killed2 whether the second kill landed — during transfer
	// (no VM yet) or during the tail-teed replay.
	Outcome2 replication.ServeOutcome
	Killed2  bool
	// SecondTakeover reports that n3 ran the final recovery alone (view 3).
	SecondTakeover bool
	// Console is the observable output after the schedule fully played out.
	Console []string
	// Records2 / Records3 are n2's / n3's log lengths at their takeovers.
	Records2, Records3 int
	// StaleEpochs counts old-epoch frames n3 dropped without acking.
	StaleEpochs uint64
	// StaleInjected reports that the configured stale-epoch straggler was
	// actually delivered to n3 (the transfer can die first, or the kill can
	// swallow the probe itself — then nothing was injected to assert on).
	StaleInjected bool
	// PrimaryErr / TailErr are the n1 run's and the promotion's errors
	// verbatim (ErrBackupLost and ErrProtocolDesync are expected on many
	// schedules and are not harness failures).
	PrimaryErr error
	TailErr    error
	// VirtualElapsed is total simulated time across all phases.
	VirtualElapsed time.Duration

	// Retained for in-package tests that poke at the survivors.
	environ *env.Env
	svc     *viewsvc.Service
	backup3 *replication.Backup
}

// RunViewCluster plays one three-node schedule to completion on a fresh
// virtual clock. An error means the harness or the replication contract
// broke, not merely that an injected failure fired.
func RunViewCluster(cfg ViewClusterConfig) (res *ViewClusterResult, err error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	simulate(cfg.WallLimit, func(clk *clock.Virtual) { res, err = runViewCluster(clk, &cfg) })
	return res, err
}

func runViewCluster(clk *clock.Virtual, cfg *ViewClusterConfig) (*ViewClusterResult, error) {
	environ := env.New(cfg.EnvSeed)
	svc := viewsvc.New(viewsvc.Config{Clock: clk})
	svc.Join(nodeA)
	svc.Join(nodeB)
	svc.Join(nodeC)
	view1, err := svc.Form()
	if err != nil {
		return nil, err
	}
	res := &ViewClusterResult{environ: environ, svc: svc}
	finish := func() (*ViewClusterResult, error) {
		res.Console = environ.Console().Lines()
		res.FinalView = svc.View()
		return res, nil
	}

	// ---- View 1: n1 primary, n2 backup, n3 idle. ----
	p1Raw, b1End := simnet.Link(clk, cfg.Net)
	primary1, err := replication.NewPrimary(replication.PrimaryConfig{
		Mode:           cfg.Mode,
		Endpoint:       p1Raw,
		Policy:         vm.NewSeededPolicy(cfg.PolicySeed, cfg.MinQuantum, cfg.MaxQuantum),
		FlushEvery:     cfg.FlushEvery,
		HeartbeatEvery: cfg.Heartbeat,
		AckTimeout:     cfg.AckTimeout,
		Clock:          clk,
		Epoch:          view1.Num,
	})
	if err != nil {
		return nil, err
	}
	machine1, err := vm.New(vm.Config{
		Program:         cfg.Program,
		Env:             environ,
		Coordinator:     primary1,
		MaxInstructions: cfg.MaxInstructions,
		TrackProgress:   cfg.Mode == ftvm.ModeSched,
	})
	if err != nil {
		return nil, err
	}
	backup2, err := replication.NewBackup(replication.BackupConfig{
		Mode:           cfg.Mode,
		Endpoint:       b1End,
		FailureTimeout: cfg.FailureTimeout,
		Clock:          clk,
		Epoch:          view1.Num,
	})
	if err != nil {
		return nil, err
	}

	if cfg.Kill1AtSend > 0 {
		deliver := cfg.Kill1Deliver
		at := cfg.Kill1AtSend
		p1Raw.SetSendHook(func(n int, _ []byte) bool {
			if n < at {
				return true
			}
			if n == at {
				machine1.Kill()
				return deliver
			}
			return false
		})
	}

	serve1Done := clock.NewFlag(clk)
	var outcome1 replication.ServeOutcome
	var serve1Err error
	clk.Go(func() {
		defer serve1Done.Set()
		outcome1, serve1Err = backup2.Serve()
		if outcome1.Failed() {
			_ = b1End.Close()
		}
	})

	t0 := clk.Now()
	run1Err := machine1.Run()
	serve1Done.Wait()

	res.Outcome1 = outcome1
	res.Killed1 = machine1.Killed()
	res.PrimaryErr = run1Err
	if serve1Err != nil {
		return res, fmt.Errorf("n2 serve: %w", serve1Err)
	}
	if run1Err != nil && !machine1.Killed() && !errors.Is(run1Err, replication.ErrBackupLost) {
		return res, fmt.Errorf("n1 run: %w", run1Err)
	}
	if outcome1 == replication.OutcomePrimaryCompleted {
		res.VirtualElapsed = clk.Since(t0)
		return finish()
	}
	if !outcome1.Failed() {
		return res, fmt.Errorf("n2 outcome %v with n1 err %v", outcome1, run1Err)
	}

	// ---- View change: n2 reports the failure and acquires the promotion
	// before any of its outputs may count as committed in view 2. ----
	view2, err := svc.ReportFailure(nodeB, nodeA)
	if err != nil {
		return res, fmt.Errorf("report n1 failure: %w", err)
	}
	if view2.Primary != nodeB || view2.Backup != nodeC {
		return res, fmt.Errorf("view after n1 death = %+v, want {n2, n3}", view2)
	}
	if err := svc.AcquirePromotion(nodeB, view2.Num); err != nil {
		return res, fmt.Errorf("n2 promotion: %w", err)
	}
	res.Promoted = true
	res.Records2 = backup2.Store().Len()

	// ---- View 2: n2 promoted, n3 recruited via state transfer. ----
	net2 := cfg.Net
	net2.Seed ^= 0x9E3779B9
	p2Raw, b2End := simnet.Link(clk, net2)
	var tailEnd transport.Endpoint = p2Raw
	if cfg.Fault.Kind != transport.FaultNone {
		tailEnd = transport.NewFaultyClock(p2Raw, cfg.Fault, cfg.FaultSeed, clk)
	}
	backup3, err := replication.NewBackup(replication.BackupConfig{
		Mode:           cfg.Mode,
		Endpoint:       b2End,
		FailureTimeout: cfg.FailureTimeout,
		Clock:          clk,
		Epoch:          view2.Num,
	})
	if err != nil {
		return res, err
	}
	res.backup3 = backup3

	// The promoted VM is built inside Recover; the kill hook reaches it via
	// an atomic cell (heartbeat sends can run the hook off this goroutine).
	// A kill that fires before the cell is set lands mid-transfer: nothing
	// to kill yet, but subsequent sends are swallowed, which aborts the
	// snapshot on its ack and fails the promotion — the intended crash.
	var machine2 atomic.Pointer[vm.VM]
	var kill2Fired atomic.Bool
	if cfg.Kill2AtSend > 0 {
		deliver := cfg.Kill2Deliver
		at := cfg.Kill2AtSend
		p2Raw.SetSendHook(func(n int, _ []byte) bool {
			if n < at {
				return true
			}
			if n == at {
				if m := machine2.Load(); m != nil {
					m.Kill()
				}
				kill2Fired.Store(true)
				return deliver
			}
			return false
		})
	}

	serve2Done := clock.NewFlag(clk)
	var outcome2 replication.ServeOutcome
	var serve2Err error
	clk.Go(func() {
		defer serve2Done.Set()
		outcome2, serve2Err = backup3.Serve()
		if outcome2.Failed() {
			_ = b2End.Close()
		}
	})

	prom, err := replication.PreparePromotion(backup2, replication.RecoverConfig{
		Program:         cfg.Program,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(cfg.RecoverSeed, cfg.RecoverMinQ, cfg.RecoverMaxQ),
		MaxInstructions: cfg.MaxInstructions,
		OnVM:            func(v *vm.VM) { machine2.Store(v) },
	}, replication.PrimaryConfig{
		Mode:           cfg.Mode,
		Endpoint:       tailEnd,
		FlushEvery:     cfg.FlushEvery,
		HeartbeatEvery: cfg.Heartbeat,
		AckTimeout:     cfg.AckTimeout,
		Clock:          clk,
		Epoch:          view2.Num,
	})
	if err != nil {
		return res, fmt.Errorf("prepare promotion: %w", err)
	}
	if cfg.InjectStale {
		staleEpoch := view1.Num
		maxDelay := net2.MaxDelay
		if maxDelay == 0 {
			minDelay := net2.MinDelay
			if minDelay == 0 {
				minDelay = 50 * time.Microsecond // simnet's default floor
			}
			maxDelay = 10 * minDelay
		}
		prom.AfterTransfer = func(*replication.Primary) error {
			// A deposed primary's straggler arriving on the new pair's
			// channel: an epoch-1 frame, ack demanded. The recruit must
			// drop it without acknowledging — an ack would let the old
			// epoch satisfy an output commit. Sent below the fault wrapper
			// so the fault plan cannot eat the probe itself.
			var buf wire.Buffer
			if err := buf.Append(&wire.Heartbeat{Seq: 999}); err != nil {
				return err
			}
			deadBefore := kill2Fired.Load()
			err := p2Raw.Send(wire.EncodeFrame(&wire.Frame{
				Seq: 999, Epoch: staleEpoch, AckWanted: true, Payload: buf.Bytes(),
			}))
			if err != nil {
				return err
			}
			// The probe only counts if it escaped the kill hook: not after
			// the process died, and on the fatal send only with delivery.
			deadAfter := kill2Fired.Load()
			res.StaleInjected = !deadBefore && (!deadAfter || cfg.Kill2Deliver)
			if res.StaleInjected {
				// Park past the link's delay bound so the recruit has
				// provably processed (and dropped) the probe before replay
				// begins — StaleEpochs is then assertable regardless of how
				// the rest of the schedule ends.
				clk.Sleep(2 * maxDelay)
			}
			return nil
		}
	}

	vm2, _, tailErr := prom.Run()
	serve2Done.Wait()

	res.TailErr = tailErr
	res.Outcome2 = outcome2
	res.Records3 = backup3.Store().Len()
	res.StaleEpochs = backup3.Stats().StaleEpochs
	if serve2Err != nil {
		return res, fmt.Errorf("n3 serve: %w", serve2Err)
	}
	res.Killed2 = kill2Fired.Load() || (vm2 != nil && vm2.Killed())
	if tailErr != nil && !res.Killed2 && !errors.Is(tailErr, replication.ErrBackupLost) {
		return res, fmt.Errorf("promotion run: %w", tailErr)
	}
	died2 := res.Killed2 || tailErr != nil
	if !died2 || outcome2 == replication.OutcomePrimaryCompleted {
		// Either the promoted execution completed cleanly, or the kill
		// landed after the halt marker shipped — the console is complete
		// in both cases.
		res.VirtualElapsed = clk.Since(t0)
		return finish()
	}
	if !outcome2.Failed() {
		return res, fmt.Errorf("n3 outcome %v with promoted n2 err %v", outcome2, tailErr)
	}

	// ---- View 3: n3, holding snapshot + tail, recovers alone. ----
	view3, err := svc.ReportFailure(nodeC, nodeB)
	if err != nil {
		return res, fmt.Errorf("report n2 failure: %w", err)
	}
	if view3.Primary != nodeC {
		return res, fmt.Errorf("view after n2 death = %+v, want n3 primary", view3)
	}
	if err := svc.AcquirePromotion(nodeC, view3.Num); err != nil {
		return res, fmt.Errorf("n3 promotion: %w", err)
	}
	res.SecondTakeover = true
	_, _, err = backup3.Recover(replication.RecoverConfig{
		Program:         cfg.Program,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(cfg.RecoverSeed^0x5D, cfg.RecoverMinQ, cfg.RecoverMaxQ),
		MaxInstructions: cfg.MaxInstructions,
	})
	res.VirtualElapsed = clk.Since(t0)
	if err != nil {
		return res, fmt.Errorf("n3 recovery: %w", err)
	}
	return finish()
}
