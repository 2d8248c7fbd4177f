package simtest

import (
	"strings"
	"testing"

	ftvm "repro"
)

// TestClassifyHistoricalReplayKeys runs the codec over every key in all four
// regression seed tables: each must classify cleanly as its own kind and
// parse to a combo that renders the identical key — the codec can never
// strand or reinterpret a historical replay string.
func TestClassifyHistoricalReplayKeys(t *testing.T) {
	check := func(t *testing.T, key string, want ReplayKind) {
		t.Helper()
		got, err := ClassifyReplayKey(key)
		if err != nil {
			t.Fatalf("ClassifyReplayKey(%q): %v", key, err)
		}
		if got != want {
			t.Fatalf("ClassifyReplayKey(%q) = %v, want %v", key, got, want)
		}
		sc, err := Parse(key)
		if err != nil {
			t.Fatalf("Parse(%q): %v", key, err)
		}
		if sc.Key() != key {
			t.Fatalf("Parse(%q) renders back as %q", key, sc.Key())
		}
	}
	for _, rs := range replaySeeds {
		t.Run("pair/"+rs.class, func(t *testing.T) { check(t, rs.key, ReplayPair) })
	}
	for _, rs := range viewReplaySeeds {
		t.Run("view/"+rs.class, func(t *testing.T) { check(t, rs.key, ReplayView) })
	}
	for _, rs := range fleetReplaySeeds {
		t.Run("fleet/"+rs.class, func(t *testing.T) { check(t, rs.key, ReplayFleet) })
	}
	for _, rs := range consensusReplaySeeds {
		t.Run("consensus/"+rs.class, func(t *testing.T) { check(t, rs.key, ReplayConsensus) })
	}
}

// TestClassifyRoundTripsComboKeys classifies freshly-rendered Key() strings.
func TestClassifyRoundTripsComboKeys(t *testing.T) {
	lock := ftvm.ModeLock // a zero Mode renders as "invalid", which Parse rejects
	keys := map[string]ReplayKind{
		Combo{ProgSeed: 7, Mode: lock, NetSeed: 3, ReorderDen: 8}.Key():                             ReplayPair,
		ViewCombo{ProgSeed: 7, Mode: lock, NetSeed: 3, ReorderDen: 8}.Key():                         ReplayView,
		FleetCombo{Seed: 7, Nodes: 4, Shards: 8, Clients: 100, Ops: 3}.Key():                        ReplayFleet,
		ConsensusCombo{ProgSeed: 7, Mode: lock, NetSeed: 3, ReorderDen: 8, ESeed: 1}.Key():          ReplayConsensus,
		ConsensusCombo{ProgSeed: 7, Mode: lock, KillLeader: true, ReorderDen: 8}.Key():              ReplayConsensus,
		Combo{ProgSeed: 9, Mode: lock, Dispatch: 1, NetSeed: 1, ReorderNum: 1, ReorderDen: 8}.Key(): ReplayPair,
	}
	for key, want := range keys {
		got, err := ClassifyReplayKey(key)
		if err != nil {
			t.Errorf("ClassifyReplayKey(%q): %v", key, err)
			continue
		}
		if got != want {
			t.Errorf("ClassifyReplayKey(%q) = %v, want %v", key, got, want)
		}
	}
}

// TestClassifyRejects covers the failure modes the substring sniffing and
// the lenient per-kind parsers let through: unknown fields, fields from the
// wrong kind, ambiguous keys, malformed parts, discriminator names hiding
// inside values, booleans that are not 0/1/true/false, repeated fields and
// missing fields.
func TestClassifyRejects(t *testing.T) {
	cases := []struct {
		name, key, wantErr string
	}{
		{"empty", "", "empty replay key"},
		{"not key=value", "prog=1,size", "is not key=value"},
		{"unknown field", "prog=1,size=small,mode=lock,bogus=3", `"bogus" is not a pair-combo field`},
		{"typoed discriminator", "prog=1,size=small,mode=lock,kil1=4", `"kil1" is not a pair-combo field`},
		{"view field without discriminator", "prog=1,size=small,mode=lock,d1=0", `"d1" is not a pair-combo field`},
		{"pair field in fleet key", "seed=3,clients=10,net=4", `"net" is not a fleet-combo field`},
		{"ambiguous view+fleet", "kill1=4,clients=10", "ambiguous"},
		{"ambiguous view+consensus", "prog=1,kill1=4,who=leader", "ambiguous"},
		{"inject on pair", "prog=1,size=small,mode=lock,inject=1", `"inject" is not a pair-combo field`},
		{"pair bool not 0/1", "prog=1,size=small,mode=lock,kill=5,deliver=yes,fault=none@0,net=1,reorder=1/8",
			`pair-combo field "deliver": "yes" is not 0, 1, true or false`},
		{"view bool not 0/1", "prog=3,size=small,mode=lock,kill1=4,d1=2,kill2=0,d2=0,fault=none@0,inject=1,net=5,reorder=1/8",
			`view-combo field "d1": "2"`},
		{"view inject not 0/1", "prog=3,size=small,mode=lock,kill1=4,d1=0,kill2=0,d2=0,fault=none@0,inject=maybe,net=5,reorder=1/8",
			`view-combo field "inject": "maybe"`},
		{"fleet inject not 0/1", "seed=7,nodes=4,shards=8,clients=800,ops=3,ka=2@200,kb=0@0,fault=none/0,inject=2",
			`fleet-combo field "inject": "2"`},
		{"repeated field", "prog=1,prog=2,size=small,mode=lock,kill=5,deliver=1,fault=none@0,net=1,reorder=1/8",
			`field "prog" is repeated`},
		{"missing field", "prog=1", `pair replay key lacks field "size"`},
		{"missing consensus field", "prog=1,size=small,mode=lock,who=leader,kill=5,deliver=1,part=0+0,inject=0,fault=none@0,net=1,reorder=1/8",
			`consensus replay key lacks field "eseed"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ClassifyReplayKey(tc.key)
			if err == nil {
				t.Fatalf("ClassifyReplayKey(%q) accepted, want error containing %q", tc.key, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ClassifyReplayKey(%q) error %q does not contain %q", tc.key, err, tc.wantErr)
			}
		})
	}

	// A discriminator name inside a VALUE must not decide the kind — the
	// historical Contains(key, "kill1=") sniffing mis-filed such keys.
	key := `seed=3,nodes=4,shards=8,clients=10,ops=3,ka=1@250,kb=0@0,fault=kill1/13,inject=0`
	got, err := ClassifyReplayKey(key)
	if err != nil || got != ReplayFleet {
		t.Fatalf("ClassifyReplayKey(value containing kill1) = %v, %v; want fleet", got, err)
	}
}
