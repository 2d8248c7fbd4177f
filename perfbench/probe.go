package main

import (
	"encoding/binary"
	"time"

	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// span is one timed interval of an op. Layer calls made hundreds of
// thousands of times per op are folded into one span per name: Calls counts
// them and Dur is their summed time.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls"`
	// Async marks a span that ran on another goroutine, concurrently with
	// its parent: it is not part of the parent's time.
	Async bool `json:"async,omitempty"`
}

// opTrace collects one op's spans. Span IDs are 1-based indices into spans.
type opTrace struct {
	op     int
	origin time.Time
	spans  []span
}

func newOpTrace(op int, origin time.Time) *opTrace { return &opTrace{op: op, origin: origin} }

func (t *opTrace) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(clock.Real.Since(t.origin)), Calls: 1,
	})
	return len(t.spans)
}

func (t *opTrace) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.Dur = int64(clock.Real.Since(t.origin)) - s.Start
	return time.Duration(s.Dur)
}

// fold records a folded span.
func (t *opTrace) fold(name string, parent int, a acc, async bool) int {
	start := int64(0)
	if !a.first.IsZero() {
		start = int64(a.first.Sub(t.origin))
	}
	t.spans = append(t.spans, span{
		Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start, Dur: int64(a.total), Calls: a.calls, Async: async,
	})
	return len(t.spans)
}

// dur sums the durations of every span with the given name.
func (t *opTrace) dur(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return time.Duration(d)
}

// hookChildren is the time the primary's hooks spent in the transport or
// the consensus backend.
func (t *opTrace) hookChildren() time.Duration {
	return t.dur("transport.send") + t.dur("transport.ack_wait") + t.dur("consensus.ship_async") + t.dur("consensus.ship_commit")
}

// attribution splits the op's root span into the time its direct,
// same-goroutine child spans cover and the remainder no span names.
func (t *opTrace) attribution() (total, named, unattributed time.Duration) {
	total = time.Duration(t.spans[0].Dur)
	for _, s := range t.spans[1:] {
		if s.Parent == 1 && !s.Async {
			named += time.Duration(s.Dur)
		}
	}
	return total, named, total - named
}

// acc accumulates calls of one kind made on one goroutine.
type acc struct {
	calls int64
	total time.Duration
	first time.Time
}

func (a *acc) add(t0 time.Time, d time.Duration) {
	if a.calls == 0 {
		a.first = t0
	}
	a.calls++
	a.total += d
}

// frameHeader reads the sequence number and ack flag at the front of an
// encoded wire.Frame (uvarint seq, uvarint epoch, flag byte) without copying
// the payload as wire.DecodeFrame does. TestFrameHeaderMatchesWire pins the
// layout to wire.AppendFrame.
func frameHeader(b []byte) (seq uint64, ackWanted bool, ok bool) {
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, false, false
	}
	_, m := binary.Uvarint(b[n:])
	if m <= 0 || len(b) <= n+m {
		return 0, false, false
	}
	return seq, b[n+m] == 1, true
}

// primaryLink wraps the primary's transport endpoint. It counts the frames,
// bytes and acks crossing it, times Send and the Recv that waits for an
// ack, and measures each output commit: from the Send of a frame the
// primary waits on to the return of the Recv delivering its ack.
type primaryLink struct {
	transport.Endpoint
	send, recv acc
	bytes      uint64
	commits    []time.Duration

	pending      bool
	pendingSeq   uint64
	pendingStart time.Time
}

func (l *primaryLink) Send(msg []byte) error {
	t0 := clock.Real.Now()
	if seq, ack, ok := frameHeader(msg); ok && ack {
		l.pending, l.pendingSeq, l.pendingStart = true, seq, t0
	}
	err := l.Endpoint.Send(msg)
	l.send.add(t0, clock.Real.Since(t0))
	l.bytes += uint64(len(msg))
	return err
}

func (l *primaryLink) Recv(timeout time.Duration) ([]byte, error) {
	t0 := clock.Real.Now()
	msg, err := l.Endpoint.Recv(timeout)
	now := clock.Real.Now()
	l.recv.add(t0, now.Sub(t0))
	if err == nil && l.pending {
		if _, seq, derr := wire.DecodeAck(msg); derr == nil && seq == l.pendingSeq {
			l.commits = append(l.commits, now.Sub(l.pendingStart))
			l.pending = false
		}
	}
	return msg, err
}

// backupLink wraps the backup's endpoint (traced runs only): Recv is the
// time Serve waits for frames, Send is the acks it returns.
type backupLink struct {
	transport.Endpoint
	send, recv acc
}

func (l *backupLink) Send(msg []byte) error {
	t0 := clock.Real.Now()
	err := l.Endpoint.Send(msg)
	l.send.add(t0, clock.Real.Since(t0))
	return err
}

func (l *backupLink) Recv(timeout time.Duration) ([]byte, error) {
	t0 := clock.Real.Now()
	msg, err := l.Endpoint.Recv(timeout)
	l.recv.add(t0, clock.Real.Since(t0))
	return msg, err
}

// shipProbe wraps the consensus backend. Ship with commit set is one output
// commit: it returns once a majority holds the batch.
type shipProbe struct {
	replication.CoordinationBackend
	async, commit acc
	bytes         uint64
	commits       []time.Duration
}

func (p *shipProbe) Ship(payload []byte, commit bool) error {
	t0 := clock.Real.Now()
	err := p.CoordinationBackend.Ship(payload, commit)
	d := clock.Real.Since(t0)
	p.bytes += uint64(len(payload))
	if commit {
		p.commit.add(t0, d)
		p.commits = append(p.commits, d)
	} else {
		p.async.add(t0, d)
	}
	return err
}

// timedCoordinator times every hook call the VM makes into the primary
// (traced runs only).
type timedCoordinator struct {
	inner vm.Coordinator
	hooks acc
}

var _ vm.Coordinator = (*timedCoordinator)(nil)

func (c *timedCoordinator) done(t0 time.Time) { c.hooks.add(t0, clock.Real.Since(t0)) }

func (c *timedCoordinator) PickNext(v *vm.VM, runnable []*vm.Thread, cur *vm.Thread) (*vm.Thread, vm.SliceTarget, error) {
	defer c.done(clock.Real.Now())
	return c.inner.PickNext(v, runnable, cur)
}

func (c *timedCoordinator) OnDescheduled(v *vm.VM, prev, next *vm.Thread) error {
	defer c.done(clock.Real.Now())
	return c.inner.OnDescheduled(v, prev, next)
}

func (c *timedCoordinator) BeforeAcquire(v *vm.VM, t *vm.Thread, m *vm.Monitor) (bool, error) {
	defer c.done(clock.Real.Now())
	return c.inner.BeforeAcquire(v, t, m)
}

func (c *timedCoordinator) AssignLID(v *vm.VM, t *vm.Thread, m *vm.Monitor) (int64, bool, error) {
	defer c.done(clock.Real.Now())
	return c.inner.AssignLID(v, t, m)
}

func (c *timedCoordinator) OnAcquired(v *vm.VM, t *vm.Thread, m *vm.Monitor) error {
	defer c.done(clock.Real.Now())
	return c.inner.OnAcquired(v, t, m)
}

func (c *timedCoordinator) NativeReady(v *vm.VM, t *vm.Thread, def *native.Def) bool {
	defer c.done(clock.Real.Now())
	return c.inner.NativeReady(v, t, def)
}

func (c *timedCoordinator) InvokeNative(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	defer c.done(clock.Real.Now())
	return c.inner.InvokeNative(v, t, def, args)
}

func (c *timedCoordinator) Poll(v *vm.VM) (bool, error) {
	defer c.done(clock.Real.Now())
	return c.inner.Poll(v)
}

func (c *timedCoordinator) OnIdle(v *vm.VM) (bool, error) {
	defer c.done(clock.Real.Now())
	return c.inner.OnIdle(v)
}

func (c *timedCoordinator) OnHalt(v *vm.VM, runErr error) error {
	defer c.done(clock.Real.Now())
	return c.inner.OnHalt(v, runErr)
}
