// Command ftvm-sim drives the deterministic simulation harness
// (internal/simtest): a complete primary/backup pair runs in one process on a
// virtual clock over a seeded simulated network, so hundreds of kill-point ×
// fault-schedule × seed combinations execute in seconds of wall time and
// every outcome — message timing included — is a pure function of the combo.
//
// Usage:
//
//	ftvm-sim                            # default sweep (>200 combos)
//	ftvm-sim -progs 8 -start 100 -nets 4 -v     # wider sweep
//	ftvm-sim -kills 1,2,3,5,8,13,21     # denser kill positions
//	ftvm-sim -trace sweep.txt           # write the deterministic trace
//	ftvm-sim -view                      # three-node view-change sweep
//	ftvm-sim -fleet                     # sharded-fleet kill x fault sweep
//	ftvm-sim -consensus                 # replicated-log (consensus backend) sweep
//	ftvm-sim -replay "prog=7,size=small,mode=sched,kill=12,deliver=1,fault=none@0,net=3,reorder=1/8"
//	ftvm-sim -replay "prog=3,size=small,mode=lock,kill1=4,d1=0,kill2=1,d2=0,fault=none@0,inject=1,net=5,reorder=1/8"
//	ftvm-sim -replay "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=ackdrop/13,inject=0"
//	ftvm-sim -replay "prog=1,size=small,mode=lock,who=leader,kill=5,deliver=1,part=0+0,inject=0,fault=none@0,eseed=1,net=1,reorder=1/8"
//
// With -view the sweep runs the three-node cluster (internal/simtest's view
// service): the first primary is killed, the promoted backup recruits the
// idle node through a snapshot + live-tail state transfer, and schedules kill
// the promoted primary too — the n−1 sequential-failure space.
//
// With -fleet the sweep runs the sharded multi-tenant fleet (internal/fleet)
// under its seeded open-loop load generator: node kills mid-window, faults on
// the replication hop, double kills, and stale-epoch probes, with every
// request checked for at-most-once execution against the model.
//
// With -consensus the sweep runs the VM over the consensus-backed replicated
// log (internal/consensus behind replication.CoordinationBackend): a
// three-replica Raft-style cluster commits every frame batch by majority
// before outputs release, and schedules kill the leader mid-commit, kill
// followers, open finite partition windows on the leader lane, inject
// stale-term frames, and vary the election seed to force contested votes.
//
// Exactly one sweep runs: the pair sweep, or the one -view, -fleet or
// -consensus selects. Selecting two, or setting a flag the chosen sweep does
// not read (-kills, -size and -nets with -fleet, -clients without it, any
// sweep flag with -replay), is an error rather than silently ignored.
//
// -replay decodes the key with simtest.Parse: its field structure decides
// the harness (a "clients" field means a fleet combo, "who" a consensus
// combo, "kill1" a view combo, and none of them a pair combo), and unknown,
// repeated, missing, ambiguous or malformed fields are rejected up front with
// an error naming the offending field. Pair replays accept -capture to write
// the backup's replication log as a .ftlog for ftvm-debug.
//
// On any divergence the sweep prints the failing combo's trace line and the
// single -replay string that reproduces it; exit status is non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/fuzzgen"
	"repro/internal/simtest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		replay   = flag.String("replay", "", "replay one combo from its key string and exit")
		progs    = flag.Int("progs", 4, "number of generated-program seeds to sweep")
		start    = flag.Uint64("start", 1, "first program seed")
		sizeName = flag.String("size", "small", "program size tier: small, medium, large")
		kills    = flag.String("kills", "", "comma-separated kill positions in frame sends (default 1,3,8,20)")
		nets     = flag.Int("nets", 2, "number of network seeds per schedule")
		tracePth = flag.String("trace", "", "write the full deterministic trace to this file")
		verbose  = flag.Bool("v", false, "print every combo's trace line")
		selected = map[string]*bool{
			"view":      flag.Bool("view", false, "sweep the three-node view-change cluster instead of the pair"),
			"fleet":     flag.Bool("fleet", false, "sweep the sharded multi-tenant fleet instead of the pair"),
			"consensus": flag.Bool("consensus", false, "sweep the consensus-backed replicated log instead of the pair"),
		}
		clients = flag.Int("clients", 1000, "clients per fleet combo (with -fleet)")
		capture = flag.String("capture", "", "with -replay of a pair combo: write the backup's replication log to this .ftlog file for ftvm-debug")
	)
	flag.Parse()

	// The schedule space, filled in once the flags are checked.
	var (
		vm        simtest.VMSpace
		killSends []int
	)
	vmAbout := func() string {
		return fmt.Sprintf("%d program seeds, %d net seeds, size %s", *progs, *nets, vm.Size)
	}
	kinds := map[string]struct {
		reads  string // the flags the run reads
		combos func() []simtest.Scenario
		about  func() string
	}{
		"pair": {"progs start size kills nets trace v", func() []simtest.Scenario {
			return simtest.SweepConfig{VMSpace: vm, KillSends: killSends}.Combos()
		}, vmAbout},
		"view": {"view progs start size kills nets trace v", func() []simtest.Scenario {
			return simtest.ViewSweepConfig{VMSpace: vm, Kill1Sends: killSends}.Combos()
		}, vmAbout},
		"fleet": {"fleet progs start clients trace v", func() []simtest.Scenario {
			return simtest.FleetSweepConfig{Seeds: vm.ProgSeeds, Clients: *clients}.Combos()
		}, func() string { return fmt.Sprintf("%d seeds, %d clients", *progs, *clients) }},
		"consensus": {"consensus progs start size kills nets trace v", func() []simtest.Scenario {
			return simtest.ConsensusSweepConfig{VMSpace: vm, KillSends: killSends}.Combos()
		}, vmAbout},
		"replay": {reads: "replay capture"},
	}

	name := "pair"
	for _, k := range []string{"view", "fleet", "consensus"} {
		if *selected[k] {
			if name != "pair" {
				return fmt.Errorf("-%s and -%s select different sweeps; choose one", name, k)
			}
			name = k
		}
	}
	if *replay != "" {
		name = "replay"
	}
	kind := kinds[name]
	var stray []string
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(kind.reads), f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		return fmt.Errorf("%s: not read by the %s run (it reads -%s)",
			strings.Join(stray, " "), name, strings.ReplaceAll(kind.reads, " ", " -"))
	}
	if *replay != "" {
		return runReplay(*replay, *capture)
	}

	var err error
	if vm.Size, err = fuzzgen.SizeByName(*sizeName); err != nil {
		return err
	}
	for i := 0; i < *progs; i++ {
		vm.ProgSeeds = append(vm.ProgSeeds, *start+uint64(i))
	}
	for i := 0; i < *nets; i++ {
		vm.NetSeeds = append(vm.NetSeeds, int64(i+1))
	}
	if *kills != "" {
		for _, f := range strings.Split(*kills, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -kills entry %q: %w", f, err)
			}
			killSends = append(killSends, n)
		}
	}

	var logf func(string)
	if *verbose {
		logf = func(line string) { fmt.Println(line) }
	}
	res := simtest.Sweep(kind.combos(), logf)

	if *tracePth != "" {
		data := strings.Join(res.Trace, "\n") + "\n"
		if err := atomicio.WriteFile(*tracePth, []byte(data), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("swept %d combos (%s) in %v wall: %d failures\n",
		res.Combos, kind.about(), res.Elapsed.Round(time.Millisecond), len(res.Failures))
	for _, f := range res.Failures {
		fmt.Printf("FAIL %s\n  replay: %s\n", f.TraceLine(), f.ReplayCommand())
	}
	if n := len(res.Failures); n > 0 {
		return fmt.Errorf("%d of %d combos diverged", n, res.Combos)
	}
	return nil
}

func runReplay(key, capture string) error {
	sc, err := simtest.Parse(key)
	if err != nil {
		return err
	}
	if capture != "" {
		cb, ok := sc.(simtest.Combo)
		if !ok {
			return fmt.Errorf("-capture only applies to pair combo keys")
		}
		cb.Capture = capture
		sc = cb
	}
	out := simtest.Run(sc)
	fmt.Println(out.TraceLine())
	if out.Err != nil {
		return out.Err
	}
	if out.Detail == "" {
		return nil
	}
	if out.Ref != nil {
		fmt.Println("reference console:")
		for _, ln := range out.Ref {
			fmt.Printf("  %s\n", ln)
		}
		fmt.Println("simulated console:")
		for _, ln := range out.Console {
			fmt.Printf("  %s\n", ln)
		}
	}
	return fmt.Errorf("check failed: %s", out.Detail)
}
