package memmap

import (
	"testing"

	"repro/internal/model"
)

func TestWriteHooksObserveSetNotPoke(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(8), 0)
	var seen []model.Word
	m.OnWrite(func(info CellInfo, raw model.Word) {
		if info.Name == "x" {
			seen = append(seen, raw)
		}
	})
	v.Set(3)
	v.SetBool(true)
	m.Poke(v.ID(), 9) // experiment-side mutation: no hook
	if err := m.FlipBit(v.ID(), 0); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 1 {
		t.Errorf("write hook observed %v, want [3 1] (Set and SetBool only)", seen)
	}
	m.ClearHooks()
	v.Set(7)
	if len(seen) != 2 {
		t.Errorf("write hook fired after ClearHooks: %v", seen)
	}
}

// liveness test fixture: drive the profiler clock by hand and access two
// variables at scripted times against a period-10 injection from t=10.
func TestLivenessCriteria(t *testing.T) {
	var m Map
	rdBeforeWr := m.AllocRAM("M", "rw", model.Uint(8), 0) // read after a tick: vulnerable
	wrBeforeRd := m.AllocRAM("M", "wr", model.Uint(8), 0) // always written just before read
	dead := m.AllocRAM("M", "dead", model.Uint(8), 0)     // written, never read
	early := m.AllocStack("M", "early", model.Uint(8))    // read only before the first tick
	lateRead := m.AllocStack("M", "late", model.Uint(8))  // read after the first tick

	l, err := NewLiveness(&m, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	m.OnRead(l.ReadHook())
	m.OnWrite(l.WriteHook())

	l.Hook(5)
	early.Set(1)
	_ = early.Get() // read at t=5, before the first tick at t=10
	_ = rdBeforeWr.Get()

	l.Hook(12)
	// Write at t=12 re-defines wrBeforeRd after the t=10 tick, then read:
	// persistent flips are overwritten, so masked.
	wrBeforeRd.Set(4)
	_ = wrBeforeRd.Get()
	// rdBeforeWr is read with its last access at t=5 and a tick at t=10
	// in between: vulnerable.
	_ = rdBeforeWr.Get()
	dead.Set(2)
	_ = lateRead.Get()

	if l.PersistentMasked(rdBeforeWr.ID()) {
		t.Error("rdBeforeWr: read after tick without redefinition must be vulnerable")
	}
	if !l.PersistentMasked(wrBeforeRd.ID()) {
		t.Error("wrBeforeRd: every read is preceded by a same-slot write, must be masked")
	}
	if !l.PersistentMasked(dead.ID()) {
		t.Error("dead: never read, must be masked")
	}
	if !l.PersistentMasked(early.ID()) {
		t.Error("early: only read before the first tick, must be persistent-masked")
	}

	if !l.TransientMasked(early.ID()) {
		t.Error("early: no read at/after the first tick, must be transient-masked")
	}
	if l.TransientMasked(lateRead.ID()) {
		t.Error("lateRead: read after the first tick consumes an armed corruption")
	}
	if !l.TransientMasked(dead.ID()) {
		t.Error("dead: never read, must be transient-masked")
	}
	// A write does NOT disarm the transient (armed-read) model.
	if l.TransientMasked(wrBeforeRd.ID()) {
		t.Error("wrBeforeRd: read after the first tick, transient corruption observable despite the write")
	}

	if r, w := l.Accesses(rdBeforeWr.ID()); r != 2 || w != 0 {
		t.Errorf("rdBeforeWr accesses = (%d, %d), want (2, 0)", r, w)
	}
}

// A never-accessed cell is masked under both criteria, and its first
// read after any tick is vulnerable (the initial value was corrupted
// before the program ever defined it).
func TestLivenessInitialValueRead(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(8), 7)
	l, err := NewLiveness(&m, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	m.OnRead(l.ReadHook())
	m.OnWrite(l.WriteHook())
	if !l.PersistentMasked(v.ID()) || !l.TransientMasked(v.ID()) {
		t.Fatal("unaccessed cell must start masked")
	}
	l.Hook(20)
	_ = v.Get()
	if l.PersistentMasked(v.ID()) {
		t.Error("first read at the first tick must be vulnerable (no prior definition)")
	}
}

func TestLivenessRejectsBadClock(t *testing.T) {
	var m Map
	if _, err := NewLiveness(&m, 0, 0); err == nil {
		t.Error("period 0 accepted")
	}
	if _, err := NewLiveness(&m, 10, -1); err == nil {
		t.Error("negative start accepted")
	}
}

// Accesses reports the profiled read and write counts of a cell.
func (l *Liveness) Accesses(id CellID) (reads, writes int) {
	if int(id) >= len(l.reads) {
		return 0, 0
	}
	return l.reads[id], l.writes[id]
}
