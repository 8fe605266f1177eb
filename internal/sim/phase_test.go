package sim

import (
	"fmt"
	"testing"
)

// TestPhaseShift is the adaptive advisor's claim, in exact counts: after
// half a phase to settle, the adaptive arm costs no more than the
// cheaper static arm by more than the advisor's hysteresis, in each
// phase; and over the whole run, it beats each static arm on Models 1
// and 2, where each static arm is right in one phase. On Model 3
// immediate maintenance wins both phases, so adaptive, which starts on
// query modification, is held to beating that arm only.
func TestPhaseShift(t *testing.T) {
	for _, model := range []Model{Model1, Model2, Model3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("model%d/seed%d", model, seed), func(t *testing.T) {
				t.Parallel()
				arms, err := PhaseShift(model, seed)
				if err != nil {
					t.Fatal(err)
				}
				qm, imm, ad := arms[0], arms[1], arms[2]
				for _, a := range arms {
					t.Logf("%-18s phases %.1f / %.1f, settled %.1f / %.1f, run %.1f model-ms/op, %d+%d flips",
						a.Name, a.Phases[0].Whole, a.Phases[1].Whole, a.Phases[0].Settled, a.Phases[1].Settled,
						a.Run, len(a.Phases[0].Flips), len(a.Phases[1].Flips))
				}
				for ph := range ShiftPhases {
					best := min(qm.Phases[ph].Settled, imm.Phases[ph].Settled)
					if got := ad.Phases[ph].Settled; got > best*(1+shiftAdvisor.Hysteresis) {
						t.Errorf("phase %d after settling: adaptive %.1f model-ms/op, the cheaper static arm %.1f", ph, got, best)
					}
				}
				beat := []ShiftArm{qm, imm}
				if model == Model3 {
					beat = beat[:1]
				}
				for _, st := range beat {
					if ad.Run >= st.Run {
						t.Errorf("whole run: adaptive %.1f model-ms/op, static %s %.1f", ad.Run, st.Name, st.Run)
					}
				}
			})
		}
	}
}
