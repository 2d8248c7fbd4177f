package simtest

import (
	"fmt"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
	frand "repro/internal/fuzzgen/rand"
	"repro/internal/simtest/clock"
)

// Scenario is one point of a sweep, of any harness kind: pair (Combo),
// three-node view change (ViewCombo), sharded fleet (FleetCombo) or
// consensus backend (ConsensusCombo). Its Key() is the canonical replay
// string, which Parse turns back into an equal scenario, so any failing
// point replays from a single line:
//
//	go run ./cmd/ftvm-sim -replay "<key>"
type Scenario interface {
	Key() string
	// run expands the scenario into its cluster or fleet config, plays it on
	// a fresh virtual clock and judges the result. VM kinds take their
	// compiled program and failure-free reference from progs.
	run(progs programCache) *Outcome
}

// Outcome is one scenario's deterministic result plus its verdict.
type Outcome struct {
	Key string
	// Fields are the kind's deterministic result fields: virtual time,
	// never wall time, so a whole sweep's trace is byte-identical across
	// runs of the same configuration.
	Fields string
	// Detail is "" when every check held: the surviving output matched the
	// failure-free reference (VM kinds), or every fleet invariant held.
	Detail string
	// Err is a harness or replication-contract error (already a failure).
	Err error
	// Ref and Console are the reference and surviving console (VM kinds).
	Ref, Console []string
	// failTag introduces Detail in the trace line.
	failTag string
}

// Failed reports whether the scenario errored or failed a check.
func (o *Outcome) Failed() bool { return o.Err != nil || o.Detail != "" }

// TraceLine renders the key and the structural outcome.
func (o *Outcome) TraceLine() string {
	if o.Err != nil {
		return fmt.Sprintf("%s -> ERROR %v", o.Key, o.Err)
	}
	if o.Detail != "" {
		return fmt.Sprintf("%s -> %s %s %s", o.Key, o.Fields, o.failTag, o.Detail)
	}
	return o.Key + " -> " + o.Fields + " ok"
}

// ReplayCommand renders the shell command that reproduces this scenario alone.
func (o *Outcome) ReplayCommand() string {
	return fmt.Sprintf("go run ./cmd/ftvm-sim -replay %q", o.Key)
}

// Run plays one scenario on its own.
func Run(sc Scenario) *Outcome { return sc.run(programCache{}) }

// SweepReport is the outcome of a sweep.
type SweepReport struct {
	Combos   int
	Failures []*Outcome
	Trace    []string
	Elapsed  time.Duration // wall time (reporting only; never in the trace)
}

// Sweep plays every scenario in order, emitting one trace line per scenario
// via logf (nil = collect only), and compiles each generated program once.
// The trace is a pure function of the scenarios.
func Sweep(scenarios []Scenario, logf func(string)) *SweepReport {
	res := &SweepReport{Combos: len(scenarios)}
	t0 := clock.Real.Now()
	progs := programCache{}
	for _, sc := range scenarios {
		out := sc.run(progs)
		line := out.TraceLine()
		res.Trace = append(res.Trace, line)
		if logf != nil {
			logf(line)
		}
		if out.Failed() {
			res.Failures = append(res.Failures, out)
		}
	}
	res.Elapsed = clock.Real.Since(t0)
	return res
}

type programKey struct {
	seed uint64
	size fuzzgen.Size
}

type compiled struct {
	prog *ftvm.Program
	ref  []string
	err  error
}

// programCache holds each generated program, compiled with its failure-free
// reference console, for the scenarios of one sweep.
type programCache map[programKey]*compiled

func (c programCache) get(seed uint64, size fuzzgen.Size) (*ftvm.Program, []string, error) {
	k := programKey{seed, size}
	p := c[k]
	if p == nil {
		p = &compiled{}
		p.prog, p.ref, p.err = comboProgram(seed, size)
		c[k] = p
	}
	return p.prog, p.ref, p.err
}

// comboProgram generates, compiles and reference-runs a seed's program.
func comboProgram(seed uint64, size fuzzgen.Size) (*ftvm.Program, []string, error) {
	envSeed, polRef, _ := deriveSeeds(seed)
	src := fuzzgen.Generate(seed, size).Render()
	prog, err := ftvm.CompileSource(fmt.Sprintf("sim-%d", seed), src)
	if err != nil {
		return nil, nil, fmt.Errorf("compile seed %d: %w", seed, err)
	}
	refRes, err := ftvm.Run(prog, ftvm.Options{
		EnvSeed: envSeed, PolicySeed: polRef,
		MinQuantum: 64, MaxQuantum: 512,
		MaxInstructions: 50_000_000,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reference run seed %d: %w", seed, err)
	}
	return prog, refRes.Console, nil
}

// deriveSeeds expands a program seed into the run's environment, primary
// policy, and recovery policy seeds (split from the program seed so shrunken
// or hand-picked programs keep their schedules, mirroring fuzzgen.derive).
func deriveSeeds(progSeed uint64) (envSeed, polRef, polRec int64) {
	drv := frand.New(progSeed ^ 0x51731EED)
	return int64(drv.Next()>>2) | 1, int64(drv.Next()>>2) | 1, int64(drv.Next()>>2) | 1
}

// runConfig is the VM-run config of a program seed's scenarios: the same
// seed derivation for every VM kind, so a program keeps its environment and
// schedules across the pair, view and consensus harnesses.
func runConfig(prog *ftvm.Program, mode ftvm.Mode, progSeed uint64) RunConfig {
	envSeed, polRef, polRec := deriveSeeds(progSeed)
	return RunConfig{Program: prog, Mode: mode, EnvSeed: envSeed, PolicySeed: polRef, RecoverSeed: polRec}
}

// startVM opens a VM scenario's outcome with its program and reference.
func startVM(key string, progs programCache, seed uint64, size fuzzgen.Size) (*Outcome, *ftvm.Program) {
	prog, ref, err := progs.get(seed, size)
	return &Outcome{Key: key, Ref: ref, Err: err, failTag: "DIVERGE"}, prog
}

// compare records a VM run's result fields and compares its surviving
// console, per writer, with the reference.
func (o *Outcome) compare(console []string, format string, args ...any) {
	o.Fields = fmt.Sprintf(format, args...)
	o.Console = console
	if detail, ok := fuzzgen.CompareFrames(o.Ref, console); !ok {
		o.Detail = detail
	}
}

// fail adds a failed check to Detail.
func (o *Outcome) fail(msg string) { o.Detail = strings.TrimSpace(o.Detail + " " + msg) }

// VMSpace is the sweep space the pair, view and consensus kinds share: every
// program seed × replication mode × network seed.
type VMSpace struct {
	// ProgSeeds are the generated-program seeds (required).
	ProgSeeds []uint64
	// Size is the generated-program size tier (default SizeSmall).
	Size fuzzgen.Size
	// Modes defaults to all three replica-coordination modes.
	Modes []ftvm.Mode
	// NetSeeds vary latency/reorder draws (default {1}).
	NetSeeds []int64
	// ReorderNum/ReorderDen give every link its reorder chance (default 1/8).
	ReorderNum, ReorderDen int
}

// each calls fn for every program seed × mode × network seed, in that
// nesting order, after filling in the defaults.
func (c *VMSpace) each(fn func(prog uint64, mode ftvm.Mode, net int64)) {
	if len(c.Modes) == 0 {
		c.Modes = []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval}
	}
	if len(c.NetSeeds) == 0 {
		c.NetSeeds = []int64{1}
	}
	if c.ReorderDen == 0 {
		c.ReorderNum, c.ReorderDen = 1, 8
	}
	for _, prog := range c.ProgSeeds {
		for _, mode := range c.Modes {
			for _, net := range c.NetSeeds {
				fn(prog, mode, net)
			}
		}
	}
}
