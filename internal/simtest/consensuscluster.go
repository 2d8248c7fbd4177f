package simtest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	ftvm "repro"
	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// ConsensusClusterConfig describes one simulated consensus-backed run: a VM
// colocated with the elected leader of a 3-replica replicated log, every
// inter-replica link a seeded simnet channel, and a fault schedule positioned
// in exact message counts — kill the leader (taking the VM with it) or a
// follower at the Nth protocol send, suppress a window of leader appends (an
// asymmetric partition that heals), wrap one link in a transport fault, or
// inject a stale-term frame.
type ConsensusClusterConfig struct {
	RunConfig

	// ConsensusSeed pins the cluster's election timeout streams (the eseed
	// axis; default 1).
	ConsensusSeed uint64

	// Net shapes every inter-replica link; each link forks its own seeded
	// lanes from Net.Seed so the three channels draw distinct delays.
	Net simnet.Config
	// Fault optionally wraps replica 0's endpoints toward both peers, so the
	// fault always sits on a leader-facing lane no matter where the election
	// puts the roles (an append stream or a response stream misbehaves
	// depending on who won). Each lane's fault counter is independent.
	Fault     transport.FaultPlan
	FaultSeed int64

	// KillAtSend > 0 fail-stops the victim at its KillAtSend-th protocol
	// message offered toward its lowest-id peer (1-based). KillLeader picks
	// the victim: the elected leader (the VM dies with it — the §4 crash the
	// survivors must recover from) or the lowest-id follower (the run must
	// complete through the remaining majority). KillDeliver lets the
	// triggering message escape onto the wire.
	KillAtSend  int
	KillLeader  bool
	KillDeliver bool

	// PartitionLen > 0 suppresses sends n in [PartitionAt, PartitionAt+
	// PartitionLen) on the leader's lane toward its lowest-id follower: a
	// one-way partition that heals, which commit flow must survive through
	// the other follower and retransmission must repair afterwards.
	PartitionAt, PartitionLen int

	// InjectStale injects a term-0 AppendEntries into the lowest-id follower
	// after the election settles; the replica must reject and count it.
	InjectStale bool

	// AckTimeout bounds each output-commit wait (default 2s virtual).
	AckTimeout time.Duration
}

func (c *ConsensusClusterConfig) fill() error {
	if c.ConsensusSeed == 0 {
		c.ConsensusSeed = 1
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 2 * time.Second
	}
	return c.RunConfig.fill()
}

// ConsensusClusterResult reports what one simulated consensus schedule did.
// Every field is a function of the config (VirtualElapsed is simulated time),
// so whole-sweep traces compare byte-for-byte.
type ConsensusClusterResult struct {
	// Killed reports the victim kill landed before clean completion;
	// Recovered that the committed log was re-executed at a cold replica.
	Killed    bool
	Recovered bool
	// Console is the observable output after the schedule fully played out.
	Console []string
	// RecordsLogged is the committed record count read back from the final
	// leader's log.
	RecordsLogged int
	// FirstLeader / FinalLeader are the replica ids holding leadership at VM
	// start and at log read-back; FinalTerm is the final leader's term.
	FirstLeader, FinalLeader int
	FinalTerm                uint64
	// StaleTerms / Malformed aggregate the replicas' rejection counters.
	StaleTerms, Malformed uint64
	// PrimaryErr is the VM run's error verbatim (ErrBackupLost is expected
	// whenever the schedule deposes or kills the leader mid-run).
	PrimaryErr error
	// Recovery is the replay report when Recovered.
	Recovery *replication.RecoveryReport
	// VirtualElapsed is total simulated time, VM start to recovery end.
	VirtualElapsed time.Duration

	// Replicas are the final per-replica protocol snapshots.
	Replicas []consensus.Stats
}

// RunConsensusCluster plays one consensus schedule to completion on a fresh
// virtual clock. An error means the harness or the protocol contract broke
// (survivors failed to elect, committed log undecodable, recovery failed) —
// not merely that the injected failure fired.
func RunConsensusCluster(cfg ConsensusClusterConfig) (res *ConsensusClusterResult, err error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	simulate(cfg.WallLimit, func(clk *clock.Virtual) { res, err = runConsensusCluster(clk, &cfg) })
	return res, err
}

func runConsensusCluster(clk *clock.Virtual, cfg *ConsensusClusterConfig) (*ConsensusClusterResult, error) {
	environ := env.New(cfg.EnvSeed)

	// Full mesh over simnet: raw[i][j] is replica i's endpoint toward j,
	// kept so schedule hooks can be installed once roles are known. Each
	// link forks its own lane seeds from Net.Seed.
	const n = 3
	var raw [n][n]*simnet.Endpoint
	link := func(i, j int) (transport.Endpoint, transport.Endpoint) {
		net := cfg.Net
		net.Seed = cfg.Net.Seed + int64(i*7+j*13)
		a, b := simnet.Link(clk, net)
		raw[i][j], raw[j][i] = a, b
		var ea transport.Endpoint = a
		if cfg.Fault.Kind != transport.FaultNone && i == 0 {
			ea = transport.NewFaultyClock(a, cfg.Fault, cfg.FaultSeed, clk)
		}
		return ea, b
	}
	cluster, err := consensus.NewCluster(consensus.Config{
		Replicas: n,
		Seed:     cfg.ConsensusSeed,
		Clock:    clk,
		Link:     link,
	})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer cluster.Stop()
	leader, err := cluster.WaitLeader(10 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("initial election: %w", err)
	}
	leaderID := leader.ID()

	// lowestPeer returns the lowest replica id that is not `of`.
	lowestPeer := func(of int) int {
		for i := 0; i < n; i++ {
			if i != of {
				return i
			}
		}
		return -1
	}

	be := consensus.NewBackend(leader, cfg.AckTimeout)
	primary, err := replication.NewPrimary(replication.PrimaryConfig{
		Mode:       cfg.Mode,
		Backend:    be,
		Policy:     vm.NewSeededPolicy(cfg.PolicySeed, cfg.MinQuantum, cfg.MaxQuantum),
		FlushEvery: cfg.FlushEvery,
		Clock:      clk,
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
	})
	if err != nil {
		return nil, err
	}

	// Schedule hooks. Send hooks run under the link lock and only count,
	// flip atomics, and suppress delivery; the replica fail-stop itself runs
	// in a poller actor (simnet endpoint close takes the same link lock a
	// hook already holds).
	runDone := clock.NewFlag(clk)
	killDone := clock.NewFlag(clk)
	victim := -1
	if cfg.KillAtSend > 0 {
		victim = leaderID
		if !cfg.KillLeader {
			victim = lowestPeer(leaderID)
		}
		probe := lowestPeer(victim)
		var killFlag atomic.Bool
		deliver, isLeader := cfg.KillDeliver, victim == leaderID
		// Positions count from hook installation, not link creation — the
		// election's own traffic must not consume the schedule's indices.
		at := cfg.KillAtSend + raw[victim][probe].Sends()
		for p := 0; p < n; p++ {
			if p == victim {
				continue
			}
			p := p
			raw[victim][p].SetSendHook(func(sn int, _ []byte) bool {
				if killFlag.Load() {
					return false // dead processes send nothing
				}
				if p != probe {
					return true // only the probe lane counts the schedule
				}
				if sn < at {
					return true
				}
				if sn == at {
					killFlag.Store(true)
					if isLeader {
						machine.Kill() // atomic flag; safe under the link lock
					}
					return deliver
				}
				return false
			})
		}
		clk.Go(func() {
			defer killDone.Set()
			for !runDone.IsSet() {
				if killFlag.Load() {
					cluster.Kill(victim)
					return
				}
				clk.Sleep(200 * time.Microsecond)
			}
		})
	} else {
		killDone.Set()
	}
	if cfg.PartitionLen > 0 {
		lane := raw[leaderID][lowestPeer(leaderID)]
		from := cfg.PartitionAt + lane.Sends()
		until := from + cfg.PartitionLen
		lane.SetSendHook(func(sn int, _ []byte) bool {
			return sn < from || sn >= until
		})
	}
	if cfg.InjectStale {
		cluster.Replica(lowestPeer(leaderID)).Inject(consensus.StaleProbe(leaderID))
	}

	t0 := clk.Now()
	runErr := machine.Run()
	runDone.Set()
	killDone.Wait()

	res := &ConsensusClusterResult{
		Killed:      machine.Killed(),
		Console:     environ.Console().Lines(),
		FirstLeader: leaderID,
		PrimaryErr:  runErr,
	}
	for i := 0; i < n; i++ {
		s := cluster.Replica(i).Snapshot()
		res.Replicas = append(res.Replicas, s)
		res.StaleTerms += s.StaleTerms
		res.Malformed += s.Malformed
	}

	// Read the committed log back from the final leader — after a leader
	// kill that means waiting out the survivors' election, whose barrier
	// commit fences every surviving entry.
	source := leader
	if source.Stopped() {
		source, err = cluster.WaitLeader(10 * time.Second)
		if err != nil {
			return res, fmt.Errorf("post-kill election: %w", err)
		}
	}
	res.FinalLeader = source.ID()
	res.FinalTerm = source.Term()
	recs, err := cluster.CommittedRecords(source.ID())
	if err != nil {
		return res, fmt.Errorf("committed log: %w", err)
	}
	res.RecordsLogged = len(recs)
	halted := false
	for _, r := range recs {
		if _, ok := r.(*wire.Halt); ok {
			halted = true
		}
	}

	if runErr != nil && !machine.Killed() && !errors.Is(runErr, replication.ErrBackupLost) {
		return res, fmt.Errorf("primary run: %w", runErr)
	}
	if !machine.Killed() && runErr == nil {
		// Clean completion (no kill, or a follower kill the majority rode
		// out): the committed log must hold the halt.
		if !halted {
			return res, errors.New("clean run without a committed halt")
		}
		res.VirtualElapsed = clk.Since(t0)
		return res, nil
	}
	if halted {
		// Kill or deposition raced clean completion: every output commit
		// made it, the console is complete.
		res.VirtualElapsed = clk.Since(t0)
		return res, nil
	}

	// Recovery: load the survivors' committed prefix into a cold backup and
	// re-execute log-gated against the same environment.
	res.Recovered = true
	idle, _ := transport.Pipe(1) // never spoken on; Recover reads only the log
	replay, err := replication.NewBackup(replication.BackupConfig{Mode: cfg.Mode, Endpoint: idle, Clock: clk})
	if err != nil {
		return res, err
	}
	if err := replay.LoadRecords(recs); err != nil {
		return res, fmt.Errorf("recovery load: %w", err)
	}
	_, report, err := replay.Recover(replication.RecoverConfig{
		Program:         cfg.Program,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(cfg.RecoverSeed, cfg.RecoverMinQ, cfg.RecoverMaxQ),
		MaxInstructions: cfg.MaxInstructions,
	})
	res.VirtualElapsed = clk.Since(t0)
	res.Recovery = report
	res.Console = environ.Console().Lines()
	if err != nil {
		return res, fmt.Errorf("recovery: %w", err)
	}
	return res, nil
}
