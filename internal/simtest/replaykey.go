package simtest

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/transport"
)

// ReplayKind identifies which harness a replay key string drives.
type ReplayKind int

const (
	// ReplayPair is a primary/backup pair combo (Combo).
	ReplayPair ReplayKind = iota
	// ReplayView is a three-node view-change combo (ViewCombo).
	ReplayView
	// ReplayFleet is a sharded-fleet combo (FleetCombo).
	ReplayFleet
	// ReplayConsensus is a consensus-backend combo (ConsensusCombo).
	ReplayConsensus
)

// kindSpec is one kind's row of the codec: its name, the field whose
// presence selects it, and the decoder built from its field table.
type kindSpec struct {
	name string
	// disc is the field that appears only in this kind's keys; the pair kind
	// has none and is the default once no discriminator is present.
	disc   string
	decode func(kind string, parts [][2]string) (Scenario, error)
}

var kinds = [...]kindSpec{
	ReplayPair:      {"pair", "", decodeAs[Combo]},
	ReplayView:      {"view", "kill1", decodeAs[ViewCombo]},
	ReplayFleet:     {"fleet", "clients", decodeAs[FleetCombo]},
	ReplayConsensus: {"consensus", "who", decodeAs[ConsensusCombo]},
}

// String implements fmt.Stringer.
func (k ReplayKind) String() string {
	if k >= 0 && int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("ReplayKind(%d)", int(k))
}

// ClassifyReplayKey decides which harness a replay key belongs to by parsing
// it strictly (see Parse).
func ClassifyReplayKey(key string) (ReplayKind, error) {
	kind, _, err := parse(key)
	return kind, err
}

// Parse decodes a replay key into the scenario it denotes. The key's kind is
// decided by its field structure, never by substrings: at most one
// kind-discriminating field (kill1, clients, who) may appear, and without
// one the key is a pair combo. Then every part must be name=value, name a
// field of that kind, appear at most once and parse; every field but
// dispatch (rendered only when non-default) must be present; booleans are
// 0, 1, true or false. Each error names the offending field, so a typo fails
// here rather than deep inside a run.
func Parse(key string) (Scenario, error) {
	_, sc, err := parse(key)
	return sc, err
}

func parse(key string) (ReplayKind, Scenario, error) {
	if strings.TrimSpace(key) == "" {
		return 0, nil, fmt.Errorf("empty replay key")
	}
	var parts [][2]string
	for _, part := range strings.Split(key, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return 0, nil, fmt.Errorf("replay key field %q is not key=value", part)
		}
		parts = append(parts, [2]string{name, val})
	}

	kind := ReplayPair
	var seen []string
	for _, p := range parts {
		for k, spec := range kinds {
			if spec.disc != "" && p[0] == spec.disc {
				seen = append(seen, p[0])
				kind = ReplayKind(k)
			}
		}
	}
	if len(seen) > 1 {
		return 0, nil, fmt.Errorf("replay key is ambiguous: fields %s name different harnesses", strings.Join(seen, " and "))
	}
	sc, err := kinds[kind].decode(kinds[kind].name, parts)
	if err != nil {
		return 0, nil, err
	}
	return kind, sc, nil
}

// field is one name=value slot of a replay key, in the kind's render order;
// val renders and parses the combo field it points at.
type field struct {
	name string
	val  flag.Value
	// omit, when set, is a default value the key leaves out on render; the
	// field may then be absent on parse and keeps the combo's zero value.
	omit string
}

// encodeKey renders fields as a replay key.
func encodeKey(fields []field) string {
	var parts []string
	for _, f := range fields {
		if s := f.val.String(); f.omit == "" || s != f.omit {
			parts = append(parts, f.name+"="+s)
		}
	}
	return strings.Join(parts, ",")
}

// fielded is a combo type whose pointer exposes its key field table.
type fielded[S any] interface {
	*S
	fields() []field
}

// decodeAs decodes parts into a fresh S through its field table.
func decodeAs[S Scenario, P fielded[S]](kind string, parts [][2]string) (Scenario, error) {
	var sc S
	fields := P(&sc).fields()
	seen := make([]bool, len(fields))
	for _, p := range parts {
		i := 0
		for i < len(fields) && fields[i].name != p[0] {
			i++
		}
		if i == len(fields) {
			var names []string
			for _, f := range fields {
				names = append(names, f.name)
			}
			return nil, fmt.Errorf("replay key field %q is not a %s-combo field (accepts %s)",
				p[0], kind, strings.Join(names, " "))
		}
		if seen[i] {
			return nil, fmt.Errorf("replay key field %q is repeated", p[0])
		}
		seen[i] = true
		if err := fields[i].val.Set(p[1]); err != nil {
			return nil, fmt.Errorf("%s-combo field %q: %w", kind, p[0], err)
		}
	}
	for i, f := range fields {
		if !seen[i] && f.omit == "" {
			return nil, fmt.Errorf("%s replay key lacks field %q", kind, f.name)
		}
	}
	return sc, nil
}

// scalar is a value over one combo field with its render and parse functions.
type scalar[T any] struct {
	p      *T
	render func(T) string
	parse  func(string) (T, error)
}

func (s scalar[T]) String() string { return s.render(*s.p) }

func (s scalar[T]) Set(v string) error {
	x, err := s.parse(v)
	if err == nil {
		*s.p = x
	}
	return err
}

// joined is a value made of two values separated by sep, like "drop-send@3".
type joined struct {
	sep  string
	a, b flag.Value
}

func (j joined) String() string { return j.a.String() + j.sep + j.b.String() }

func (j joined) Set(v string) error {
	a, b, ok := strings.Cut(v, j.sep)
	if !ok {
		return fmt.Errorf("%q has no %q", v, j.sep)
	}
	if err := j.a.Set(a); err != nil {
		return err
	}
	return j.b.Set(b)
}

func intVal(p *int) flag.Value { return scalar[int]{p, strconv.Itoa, strconv.Atoi} }

func uintVal(p *uint64) flag.Value {
	return scalar[uint64]{p,
		func(x uint64) string { return strconv.FormatUint(x, 10) },
		func(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }}
}

func int64Val(p *int64) flag.Value {
	return scalar[int64]{p,
		func(x int64) string { return strconv.FormatInt(x, 10) },
		func(s string) (int64, error) { return strconv.ParseInt(s, 0, 64) }}
}

// boolVal renders 0/1 and accepts only 0, 1, true and false.
func boolVal(p *bool) flag.Value {
	return scalar[bool]{p,
		func(b bool) string {
			if b {
				return "1"
			}
			return "0"
		},
		func(s string) (bool, error) {
			switch s {
			case "1", "true":
				return true, nil
			case "0", "false":
				return false, nil
			}
			return false, fmt.Errorf("%q is not 0, 1, true or false", s)
		}}
}

// msVal renders a duration in whole milliseconds.
func msVal(p *time.Duration) flag.Value {
	return scalar[time.Duration]{p,
		func(d time.Duration) string { return strconv.FormatInt(int64(d/time.Millisecond), 10) },
		func(s string) (time.Duration, error) {
			ms, err := strconv.Atoi(s)
			return time.Duration(ms) * time.Millisecond, err
		}}
}

func stringVal(p *string) flag.Value {
	return scalar[string]{p,
		func(s string) string { return s },
		func(s string) (string, error) { return s, nil }}
}

func sizeVal(p *fuzzgen.Size) flag.Value {
	return scalar[fuzzgen.Size]{p, fuzzgen.Size.String, fuzzgen.SizeByName}
}

func modeVal(p *ftvm.Mode) flag.Value {
	return scalar[ftvm.Mode]{p, ftvm.Mode.String, func(name string) (ftvm.Mode, error) {
		for _, m := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval} {
			if m.String() == name {
				return m, nil
			}
		}
		return 0, fmt.Errorf("unknown mode %q (lock, sched, lockint)", name)
	}}
}

func dispatchVal(p *ftvm.Dispatch) flag.Value {
	return scalar[ftvm.Dispatch]{p, ftvm.Dispatch.String, ftvm.ParseDispatch}
}

// faultVal renders a transport fault plan as kind@index.
func faultVal(kind *transport.FaultKind, at *int) flag.Value {
	return joined{"@", scalar[transport.FaultKind]{kind, transport.FaultKind.String,
		func(name string) (transport.FaultKind, error) {
			for k := transport.FaultNone; k.String() != "invalid"; k++ {
				if k.String() == name {
					return k, nil
				}
			}
			return 0, fmt.Errorf("unknown fault kind %q", name)
		}}, intVal(at)}
}

// reorderVal renders a reorder chance as num/den.
func reorderVal(num, den *int) flag.Value { return joined{"/", intVal(num), intVal(den)} }
