package sched

import (
	"testing"

	"repro/internal/model"
)

// Save from a post-slot hook records the start of the next slot;
// Restore resumes there and Matches reads the clock the same way.
func TestSaveRestoreMatches(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	b := &counter{id: "B"}
	s := newSched(t, bus, Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}, {"B"}, {}}}, a, b)
	var st State
	s.OnPostSlot(func(nowMs int64) {
		if nowMs == 4 {
			s.Save(&st)
			if !s.Matches(&st) {
				t.Error("scheduler does not match the state just saved")
			}
		}
	})
	if err := s.RunFor(10); err != nil {
		t.Fatal(err)
	}
	if st.NowMs != 5 || st.Slot != 5%3 {
		t.Fatalf("saved clock %d ms slot %d, want 5 ms slot 2", st.NowMs, st.Slot)
	}
	if want := []int64{2, 2}; st.Invoked[0] != want[0] || st.Invoked[1] != want[1] {
		t.Fatalf("saved invocations %v, want %v", st.Invoked, want)
	}
	if s.Matches(&st) {
		t.Error("scheduler 5 slots later still matches")
	}

	s.Restore(&st)
	if !s.Matches(&st) || s.NowMs() != 5 {
		t.Fatalf("restored scheduler at %d ms does not match", s.NowMs())
	}
	if err := s.RunFor(5); err != nil {
		t.Fatal(err)
	}
	if got := s.Invocations("A"); got != 4 {
		t.Errorf("A invoked %d times after replaying to 10 ms, want 4", got)
	}
}
