package simtest

import (
	"errors"
	"testing"

	ftvm "repro"
	"repro/internal/fuzzgen"
)

// TestPromotionTransferSurvivesKillAtEveryTailPosition is the state-transfer
// durability table: after the first primary dies and the promoted n2 recruits
// n3 through a snapshot + live-tail transfer, n2 itself is killed at every
// position of the second link — the 1st message (mid-snapshot) through far
// past the tail (kill never lands) — with the final frame both swallowed and
// delivered. At every position the recruit must run the final recovery to the
// failure-free reference output. PR 6 checked a couple of fixed two-kill
// schedules; this sweeps the whole position space for a fixed workload.
func TestPromotionTransferSurvivesKillAtEveryTailPosition(t *testing.T) {
	const progSeed = 5
	prog, ref, err := comboProgram(progSeed, fuzzgen.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}

	// The position space is discovered, not assumed: keep killing one send
	// later until the kill falls past the promoted primary's final message
	// (Killed2 = false for both deliver variants), so every position the
	// schedule can produce is covered exactly once.
	const positionCap = 400
	takeovers, landedEarly, landedLate, missed := 0, 0, 0, 0
	for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched} {
		for k2 := 1; k2 <= positionCap; k2++ {
			pastEnd := true
			for _, deliver := range []bool{false, true} {
				cb := ViewCombo{
					ProgSeed: progSeed, Size: fuzzgen.SizeSmall, Mode: mode,
					Kill1AtSend: 3, Kill1Deliver: false,
					Kill2AtSend: k2, Kill2Deliver: deliver,
					NetSeed: 1, ReorderNum: 1, ReorderDen: 8,
				}
				r, err := RunViewCluster(cb.viewClusterConfig(prog))
				if err == nil {
					if detail, ok := fuzzgen.CompareFrames(ref, r.Console); !ok {
						err = errors.New(detail)
					}
				}
				if err != nil {
					t.Errorf("tail position %d (deliver=%t, mode=%s): %v\nreplay key: %s",
						k2, deliver, mode, err, cb.Key())
					continue
				}
				switch {
				case !r.Killed2:
					missed++ // position past the schedule's last send
				case r.SecondTakeover:
					pastEnd = false
					takeovers++
					// Records3 < Records2 means n3 died holding a shorter log
					// than n2 shipped — the kill landed inside the transfer.
					if r.Records3 < r.Records2 {
						landedEarly++
					} else {
						landedLate++
					}
				default:
					pastEnd = false
				}
			}
			if pastEnd {
				break // both variants outlived the schedule: space exhausted
			}
		}
	}
	if takeovers == 0 {
		t.Fatal("no position actually killed the promoted primary")
	}
	if landedEarly == 0 || landedLate == 0 {
		t.Fatalf("table did not cover both transfer phases: %d mid-transfer, %d tail kills", landedEarly, landedLate)
	}
	if missed == 0 {
		t.Fatal("table never ran past the final send (position space too small to be exhaustive)")
	}
	t.Logf("%d second takeovers (%d mid-transfer, %d in the tail), %d positions past the end",
		takeovers, landedEarly, landedLate, missed)
}
