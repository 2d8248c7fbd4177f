package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/vm"
)

// workload is one benchmark input: a program from internal/programs run
// under one replication mode over one coordination backend. Why each exists,
// and which layers it exercises or bypasses, is in README.md.
type workload struct {
	name    string
	program string
	mode    replication.Mode
	quorum  bool // 3-replica consensus log instead of the primary/backup pair
}

var workloads = []workload{
	{name: "ts-mtrt", program: "mtrt", mode: replication.ModeSched},
	{name: "lock-db", program: "db", mode: replication.ModeLock},
	// Not in BENCHMARK.json: with the consensus package's default election
	// timeouts, about one op in a hundred fails (README.md, "quorum-db").
	{name: "quorum-db", program: "db", mode: replication.ModeLock, quorum: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Scheduling quanta, in branches: the defaults of the repository's runners.
const minQuantum, maxQuantum = 1024, 8192

// recoveryPolicyMix derives the recovering backup's own scheduling seed from
// the primary's, as the repository's replay runners do: only the log makes
// the two schedules agree.
const recoveryPolicyMix = 0x5DEECE66D

// seeds are everything a workload's inputs depend on. The programs take no
// other input: the environment seed drives their clock and entropy devices,
// the policy seed the primary's scheduling, the consensus seed the replicas'
// election timeouts.
type seeds struct {
	Env       int64
	Policy    int64
	Consensus uint64
}

// goldenEnvSeed and goldenPolicySeed are the seeds testdata/exec_golden.json
// was captured at; --seed 1 selects them.
const goldenEnvSeed, goldenPolicySeed = 20030622, 1

// seedsFor maps the benchmark's --seed onto the three seeds. Seed 1 is the
// golden capture's.
func seedsFor(n int64) seeds {
	return seeds{Env: goldenEnvSeed + n - 1, Policy: n, Consensus: uint64(n)}
}

func (s seeds) golden() bool { return s.Env == goldenEnvSeed && s.Policy == goldenPolicySeed }

// reference is the output every op must reproduce: the console the program
// prints and the number of bytecodes it executes.
type reference struct {
	Console      []string
	Instructions uint64
	Source       string // "golden" or "standalone"
}

// goldenReference reads the program's entry of the checked-in golden file.
func goldenReference(path, program string) (*reference, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	var golden map[string]struct {
		Console []string `json:"console"`
		Stats   vm.Stats `json:"stats"`
	}
	if err := json.Unmarshal(blob, &golden); err != nil {
		return nil, fmt.Errorf("parse golden %s: %w", path, err)
	}
	g, ok := golden["bench/"+program]
	if !ok {
		return nil, fmt.Errorf("golden %s has no entry for %s", path, program)
	}
	return &reference{Console: g.Console, Instructions: g.Stats.Instructions, Source: "golden"}, nil
}

// standaloneReference runs prog unreplicated with the same seeds.
func standaloneReference(prog *bytecode.Program, s seeds) (*reference, error) {
	environ := env.New(s.Env)
	machine, err := vm.New(vm.Config{
		Program:     prog,
		Env:         environ,
		Coordinator: vm.NewDefaultCoordinator(vm.NewSeededPolicy(s.Policy, minQuantum, maxQuantum)),
	})
	if err != nil {
		return nil, fmt.Errorf("standalone reference: %w", err)
	}
	if err := machine.Run(); err != nil {
		return nil, fmt.Errorf("standalone reference: %w", err)
	}
	return &reference{Console: environ.Console().Lines(), Instructions: machine.Stats().Instructions, Source: "standalone"}, nil
}

// referenceFor picks the golden entry at the golden seeds and a standalone
// run with the same seeds otherwise.
func referenceFor(w workload, prog *bytecode.Program, s seeds, goldenPath string) (*reference, error) {
	if s.golden() {
		return goldenReference(goldenPath, w.program)
	}
	return standaloneReference(prog, s)
}

// check compares one execution's output against the reference.
func (r *reference) check(what string, console []string, instructions uint64) error {
	if instructions != r.Instructions {
		return fmt.Errorf("%s executed %d bytecodes, %s reference %d", what, instructions, r.Source, r.Instructions)
	}
	if !slices.Equal(console, r.Console) {
		i := 0
		for i < len(console) && i < len(r.Console) && console[i] == r.Console[i] {
			i++
		}
		return fmt.Errorf("%s console differs from %s reference at line %d (%d vs %d lines)", what, r.Source, i+1, len(console), len(r.Console))
	}
	return nil
}
