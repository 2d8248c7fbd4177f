// Command perfbench is the FTVM benchmark. It drives the repository's
// layers through their Go functions — programs.Compile, vm.New/Run,
// replication.NewPrimary/NewBackup/Serve/LoadRecords/Recover,
// transport.Pipe and consensus.NewCluster/NewBackend — as one closed-loop
// caller running one replicated execution at a time, and measures what a
// user of a fault-tolerant VM pays: the replicated execution, the wait
// before each output and the cold backup's takeover. README.md documents
// the workloads, the metrics and what each layer metric should move.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/programs"
	"repro/internal/simtest/clock"
)

// goldenPath is the golden capture, relative to the repository root the
// benchmark runs from.
const goldenPath = "testdata/exec_golden.json"

// setupRepeats is how often set-up is repeated before each op. Spreading
// the repetitions over the run, instead of timing them in one block, lets
// their median see the same host phases as the ops.
const setupRepeats = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: ts-mtrt, lock-db or quorum-db")
		seed       = flag.Int64("seed", 1, "workload seed; 1 selects the golden capture's seeds")
		seconds    = flag.Int("seconds", 10, "how long to measure")
		traceMode  = flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
		envSeed    = flag.Int64("env-seed", 0, "environment seed (default: derived from --seed)")
		policySeed = flag.Int64("policy-seed", 0, "primary scheduling seed (default: derived from --seed)")
		consSeed   = flag.Uint64("consensus-seed", 0, "consensus election seed (default: derived from --seed)")
	)
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fatalf("--trace must be 0 or 1")
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	s := seedsFor(*seed)
	if *envSeed != 0 {
		s.Env = *envSeed
	}
	if *policySeed != 0 {
		s.Policy = *policySeed
	}
	if *consSeed != 0 {
		s.Consensus = *consSeed
	}
	b, err := setUp(w, s, goldenPath)
	if err != nil {
		fatalf("set-up: %v", err)
	}
	fmt.Printf("workload %s: env seed %d, policy seed %d, consensus seed %d, reference %s\n",
		w.name, s.Env, s.Policy, s.Consensus, b.ref.Source)
	window := time.Duration(*seconds) * time.Second

	var res *result
	if *traceMode == 0 {
		res = runEndToEnd(b, window)
	} else {
		var spans []span
		res, spans = runTraced(b, window)
		path := tracePath(w.name, *seed)
		if err := writeSpans(path, spans); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	printResult(res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setUp compiles the program (the set-up a user of the VM pays before
// running it) and loads the reference outputs.
func setUp(w workload, s seeds, golden string) (*bench, error) {
	b := &bench{w: w, seeds: s, origin: clock.Real.Now()}
	if err := b.timeSetUp(); err != nil {
		return nil, err
	}
	ref, err := referenceFor(w, b.prog, s, golden)
	if err != nil {
		return nil, err
	}
	b.ref = ref
	return b, nil
}

// timeSetUp repeats the set-up setupRepeats times, recording each duration.
func (b *bench) timeSetUp() error {
	for i := 0; i < setupRepeats; i++ {
		t0 := clock.Real.Now()
		prog, err := programs.Compile(b.w.program, 1)
		if err != nil {
			return err
		}
		b.setupDurs = append(b.setupDurs, clock.Real.Since(t0))
		if b.prog == nil {
			b.prog = prog
		}
	}
	return nil
}

// tally counts attempted and failed ops, reporting each failure.
type tally struct{ attempted, failed int }

func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	return true
}

// runEndToEnd is the untraced run: one warm-up op, then rounds back to
// back until the window closes. A round is ten set-ups, the program run
// unreplicated, one op, and the program run unreplicated again. The
// replicated execution is timed against the unreplicated run before it,
// the takeover against the one after it, so that both sides of each ratio
// see the same phase of the shared host (README.md, "Bounds and the host").
func runEndToEnd(b *bench, window time.Duration) *result {
	var t tally
	_, err := b.op(false)
	t.record(err)
	var exec, takeover, plain, execX, takeoverX, commits, alloc []float64
	start := clock.Real.Now()
	for clock.Real.Since(start) < window {
		if err := b.timeSetUp(); err != nil {
			fatalf("set-up: %v", err)
		}
		before, err := b.standalone(false)
		if !t.record(err) {
			continue
		}
		r, err := b.op(false)
		if !t.record(err) {
			continue
		}
		after, err := b.standalone(false)
		if !t.record(err) {
			continue
		}
		exec = append(exec, ms(r.exec))
		takeover = append(takeover, ms(r.takeover))
		plain = append(plain, ms(before), ms(after))
		execX = append(execX, float64(r.exec)/float64(before))
		takeoverX = append(takeoverX, float64(r.takeover)/float64(after))
		for _, c := range r.commits {
			commits = append(commits, us(c))
		}
		alloc = append(alloc, float64(r.allocBytes)/1e6)
	}
	res := newResult(t)
	n := fmt.Sprintf("median of %d rounds", len(execX))
	res.add("exec_slowdown", median(execX), "x", "replicated execution / unreplicated run, "+n)
	res.add("takeover_slowdown", median(takeoverX), "x", "cold takeover / unreplicated run, "+n)
	// Printed, but not gated: see README.md, "Bounds and the host" and
	// "Output commits".
	show("exec_ms", median(exec), "ms", n+"; not gated")
	show("takeover_ms", median(takeover), "ms", n+"; not gated")
	show("unreplicated_ms", median(plain), "ms", fmt.Sprintf("median of %d runs; not gated", len(plain)))
	show("commit_p50_us", percentile(commits, 50), "us", fmt.Sprintf("of %d output commits; not gated", len(commits)))
	show("commit_p99_us", percentile(commits, 99), "us", fmt.Sprintf("of %d output commits; not gated", len(commits)))
	res.add("alloc_mb", median(alloc), "MB", "Go heap allocated per op, median")
	res.add("setup_s", median(secondsOf(b.setupDurs)), "s", fmt.Sprintf("median of %d set-ups", len(b.setupDurs)))
	return res
}

// runTraced is the per-layer run. Each round runs ten set-ups, an untraced
// op (the baseline for the tracing overhead and the source of the commit
// latencies), a traced op, and the program standalone without and with
// progress bookkeeping.
func runTraced(b *bench, window time.Duration) (*result, []span) {
	var t tally
	var spans []span
	var commits []float64
	samples := map[string][]float64{} // per-round values, by metric name
	sample := func(name string, d time.Duration) { samples[name] = append(samples[name], ms(d)) }
	var first *opResult
	start := clock.Real.Now()
	for clock.Real.Since(start) < window {
		if err := b.timeSetUp(); err != nil {
			fatalf("set-up: %v", err)
		}
		u, err := b.op(false)
		if !t.record(err) {
			continue
		}
		r, err := b.op(true)
		if !t.record(err) {
			continue
		}
		runDur, err := b.standalone(false)
		if !t.record(err) {
			continue
		}
		trackedDur, err := b.standalone(true)
		if !t.record(err) {
			continue
		}
		if first == nil {
			first = r
		}
		for _, c := range u.commits {
			commits = append(commits, us(c))
		}
		tr := r.trace
		spans = append(spans, tr.spans...)
		total, _, rest := tr.attribution()
		untraced, _, _ := u.trace.attribution()
		sample("op.untraced", untraced)
		sample("op.traced", total)
		sample("trace.unattributed_ms", rest)
		sample("vm.new_ms", tr.dur("vm.new"))
		sample("vm.run_ms", runDur)
		sample("vm.run_tracked_ms", trackedDur)
		sample("vm.progress_ms", trackedDur-runDur)
		hook := tr.dur("replication.primary.hook")
		sample("replication.primary.hook_ms", hook)
		sample("replication.primary.self_ms", hook-tr.hookChildren())
		sample("replication.backup.serve_busy_ms", tr.dur("replication.backup.serve")-tr.dur("replication.backup.recv_wait"))
		for metric, spanName := range map[string]string{
			"transport.send_ms":               "transport.send",
			"transport.ack_wait_ms":           "transport.ack_wait",
			"replication.backup.recv_wait_ms": "replication.backup.recv_wait",
			"consensus.ship_async_ms":         "consensus.ship_async",
			"consensus.ship_commit_ms":        "consensus.ship_commit",
			"replication.backup.load_ms":      "replication.backup.load",
			"replication.backup.recover_ms":   "replication.backup.recover",
		} {
			sample(metric, tr.dur(spanName))
		}
	}
	res := newResult(t)
	if first == nil {
		first = &opResult{}
	}
	c := first.counts
	n := fmt.Sprintf("median of %d traced ops", len(samples["op.traced"]))
	timed := func(name, note string) { res.add(name, median(samples[name]), "ms", note) }
	nc := fmt.Sprintf("of %d output commits of the untraced ops", len(commits))
	res.add("commit_p50_us", percentile(commits, 50), "us", nc)
	res.add("commit_p99_us", percentile(commits, 99), "us", nc)
	res.add("programs.compile_ms", median(msOf(b.setupDurs)), "ms", fmt.Sprintf("median of %d compiles", len(b.setupDurs)))
	timed("vm.new_ms", n)
	timed("vm.run_ms", "standalone, no progress bookkeeping")
	timed("vm.run_tracked_ms", "standalone, TrackProgress on")
	timed("vm.progress_ms", "tracked minus untracked standalone run")
	res.count("vm.instructions", c.Instructions)
	res.count("vm.branches", c.Branches)
	res.count("vm.locks_acquired", c.LocksAcquired)
	res.count("vm.native_calls", c.NativeCalls)
	res.count("vm.output_commits", c.OutputCommits)
	res.count("vm.reschedules", c.Reschedules)
	timed("replication.primary.hook_ms", n)
	timed("replication.primary.self_ms", "hook time minus its transport or backend spans")
	res.count("replication.primary.hook_calls", c.HookCalls)
	res.count("replication.primary.records", c.Records)
	res.add("replication.primary.records_per_frame", ratio(c.Records, c.Frames), "records", "")
	res.add("wire.bytes_per_record", ratio(c.Bytes, c.Records), "bytes", "")
	timed("transport.send_ms", n)
	timed("transport.ack_wait_ms", n)
	res.count("transport.frames", c.Frames)
	res.count("transport.bytes", c.Bytes)
	res.count("transport.acks", c.Acks)
	timed("replication.backup.serve_busy_ms", "Serve minus its receive waits")
	timed("replication.backup.recv_wait_ms", n)
	timed("consensus.ship_async_ms", n)
	timed("consensus.ship_commit_ms", n)
	res.count("consensus.entries", first.entries)
	res.count("consensus.elections", first.elections)
	timed("replication.backup.load_ms", n)
	timed("replication.backup.recover_ms", n)
	res.count("replication.backup.replayed_switches", c.ReplayedSwitches)
	res.count("replication.backup.gated_wakeups", c.GatedWakeups)
	res.count("replication.backup.fed_results", c.FedResults)
	res.count("sehandler.reinvoked", c.Reinvoked)
	res.count("sehandler.tested", c.Tested)
	res.count("sehandler.skipped", c.Skipped)
	timed("trace.unattributed_ms", "op time no named span covers")
	traced, untraced := median(samples["op.traced"]), median(samples["op.untraced"])
	res.add("trace.overhead_pct", 100*(traced/untraced-1), "%", fmt.Sprintf("traced op %.1f ms vs untraced %.1f ms", traced, untraced))
	return res, spans
}

func newResult(t tally) *result {
	return &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
}

// add records a metric and prints it on its own line.
func (r *result) add(name string, value float64, unit, note string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	show(name, value, unit, note)
}

// show prints a measurement without recording it as a metric.
func show(name string, value float64, unit, note string) {
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("%-40s %14.6g %s%s\n", name, value, unit, note)
}

func (r *result) count(name string, v uint64) { r.add(name, float64(v), "count", "") }

func printResult(r *result) {
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-40s %14.6g ratio (%d failed of %d attempted ops)\n", "error_rate", rate, r.Failed, r.Attempted)
	blob, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(blob))
}

// tracePath puts a traced run's spans next to the executable, which run.sh
// builds into the build-output directory.
func tracePath(workload string, seed int64) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}

func writeSpans(path string, spans []span) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(rank, len(s)-1))]
}
