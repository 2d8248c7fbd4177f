package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// testGolden is the golden capture seen from this directory.
var testGolden = filepath.Join("..", goldenPath)

func setUpTest(t *testing.T, name string, seed int64) *bench {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(w, seedsFor(seed), testGolden)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameHeaderMatchesWire(t *testing.T) {
	for _, f := range []wire.Frame{
		{Seq: 1, Epoch: 0, AckWanted: true, Payload: []byte{1, 2, 3}},
		{Seq: 300, Epoch: 7, AckWanted: false, Payload: nil},
		{Seq: 1 << 40, Epoch: 1 << 33, AckWanted: true, Payload: make([]byte, 200)},
	} {
		seq, ack, ok := frameHeader(wire.AppendFrame(nil, &f))
		if !ok || seq != f.Seq || ack != f.AckWanted {
			t.Errorf("frame %d/%v: header read seq %d ack %v ok %v", f.Seq, f.AckWanted, seq, ack, ok)
		}
	}
	if _, _, ok := frameHeader([]byte{0x80}); ok {
		t.Error("truncated header accepted")
	}
}

// A reference the execution does not reproduce must count the op as failed.
func TestWrongReferenceCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the VM")
	}
	b := setUpTest(t, "ts-mtrt", 1)
	if b.ref.Source != "golden" {
		t.Fatalf("seed 1 reference is %s, want golden", b.ref.Source)
	}
	good := *b.ref
	console := append([]string(nil), good.Console...)
	console[len(console)/2] += " (altered)"

	for _, tc := range []struct {
		name string
		ref  reference
		want string
	}{
		{"console", reference{Console: console, Instructions: good.Instructions, Source: "altered"}, "console differs"},
		{"instructions", reference{Console: good.Console, Instructions: good.Instructions + 1, Source: "altered"}, "bytecodes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.ref
			b.ref = &ref
			_, err := b.op(false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("op error = %v, want one mentioning %q", err, tc.want)
			}
			// The run loop turns the failure into the result's counts.
			res := runEndToEnd(b, 0)
			if res.Correct || res.Attempted != 1 || res.Failed != 1 {
				t.Fatalf("result correct=%v attempted=%d failed=%d, want one failed op", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
	b.ref = &good
	if _, err := b.op(false); err != nil {
		t.Fatalf("op with the right reference: %v", err)
	}
}

// Every op of a run must repeat the first op's counters.
func TestCounterDriftFailsOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the VM")
	}
	b := setUpTest(t, "ts-mtrt", 1)
	if _, err := b.op(false); err != nil {
		t.Fatal(err)
	}
	b.first[0].Records++
	if _, err := b.op(false); err == nil || !strings.Contains(err.Error(), "differ from the run's first op") {
		t.Fatalf("op error = %v, want a counter mismatch", err)
	}
}

// The named spans of a traced op plus the unattributed remainder add up to
// the op's time, and every span sits inside the one it is charged to.
func TestSpansAccountForOpTime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the VM")
	}
	for _, name := range []string{"lock-db", "quorum-db"} {
		t.Run(name, func(t *testing.T) {
			b := setUpTest(t, name, 1)
			r, err := b.op(true)
			if err != nil {
				t.Fatal(err)
			}
			tr := r.trace
			total, named, rest := tr.attribution()
			if named+rest != total || rest < 0 {
				t.Fatalf("named %v + unattributed %v != op %v", named, rest, total)
			}
			if rest > total/20 {
				t.Errorf("unattributed %v is over 5%% of the op's %v", rest, total)
			}
			// The op's direct children run one after another, so their sum
			// is the time they cover and the remainder is what none names.
			root := tr.spans[0]
			end := root.Start
			for _, s := range tr.spans[1:] {
				if s.Parent != root.ID || s.Async {
					continue
				}
				if s.Start < end {
					t.Errorf("span %s starts before its predecessor ends", s.Name)
				}
				end = s.Start + s.Dur
			}
			for _, s := range tr.spans[1:] {
				p := tr.spans[s.Parent-1]
				if s.Dur < 0 || s.Dur > p.Dur && !s.Async {
					t.Errorf("span %s (%v) exceeds its parent %s (%v)", s.Name, time.Duration(s.Dur), p.Name, time.Duration(p.Dur))
				}
				if s.Parent == root.ID && !s.Async && (s.Start < root.Start || s.Start+s.Dur > root.Start+root.Dur) {
					t.Errorf("span %s lies outside the op", s.Name)
				}
			}
			hook, children := tr.dur("replication.primary.hook"), tr.hookChildren()
			if hook <= 0 || children > hook {
				t.Errorf("hook time %v, its transport/backend children %v", hook, children)
			}
		})
	}
}

// A second seed passes every check on every workload, traced and not.
func TestSecondSeedPassesChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the VM")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := setUpTest(t, w.name, 2)
			if b.ref.Source != "standalone" {
				t.Fatalf("seed 2 reference is %s, want standalone", b.ref.Source)
			}
			for _, traced := range []bool{false, true} {
				if _, err := b.op(traced); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
			}
		})
	}
}
