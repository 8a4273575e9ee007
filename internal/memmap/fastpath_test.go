package memmap

import (
	"fmt"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/model"
)

// widthTypes is every supported cell width, unsigned and signed, plus
// bool.
func widthTypes() []model.Type {
	var out []model.Type
	for w := uint8(1); w <= 32; w++ {
		out = append(out, model.Uint(w), model.Int(w))
	}
	return append(out, model.Bool())
}

// TestVarsSurviveReallocation allocates enough cells to move the dense
// storage several times and checks that every Var still reads and
// writes its own live cell: hook-free Get, GetBool, Set and Add agree
// with Peek and Poke.
func TestVarsSurviveReallocation(t *testing.T) {
	var m Map
	types := widthTypes()
	var vars []*Var
	moves := 0
	for k := 0; k < 4*len(types); k++ {
		before := cap(m.raw)
		vars = append(vars, m.AllocRAM("M", fmt.Sprintf("v%d", k), types[k%len(types)], model.Word(k)))
		if cap(m.raw) != before {
			moves++
		}
	}
	if moves < 4 {
		t.Fatalf("storage moved %d times, want several", moves)
	}
	for k, v := range vars {
		ty, id := types[k%len(types)], v.ID()
		if got, want := v.Get(), m.Peek(id); got != want || want != ty.FromRaw(model.Word(k)) {
			t.Fatalf("%s #%d: Get = %d, Peek = %d, want %d", ty, k, got, want, ty.FromRaw(model.Word(k)))
		}
		for _, x := range []model.Word{0, 1, -1, model.Word(1) << (ty.Width - 1), 0x5A5A_5A5A_5A5A, -0x1234_5678} {
			v.Set(x)
			if got, want := m.PeekRaw(id), ty.ToRaw(x); got != want {
				t.Fatalf("%s #%d: Set(%#x) stored %#x, want %#x", ty, k, x, got, want)
			}
			m.Poke(id, ^x)
			if got, want := v.Get(), m.Peek(id); got != want || want != ty.FromRaw(^x) {
				t.Fatalf("%s #%d: Get after Poke(%#x) = %d, Peek = %d, want %d", ty, k, ^x, got, want, ty.FromRaw(^x))
			}
			if got, want := v.GetBool(), m.Peek(id) != 0; got != want {
				t.Fatalf("%s #%d: GetBool = %v, want %v", ty, k, got, want)
			}
			if got, want := v.Add(x), ty.FromRaw(^x+x); got != want || m.Peek(id) != want {
				t.Fatalf("%s #%d: Add(%#x) = %d (Peek %d), want %d", ty, k, x, got, m.Peek(id), want)
			}
		}
	}
	// Neighbouring cells stay untouched by each other's writes.
	for k, v := range vars {
		v.Set(model.Word(k))
	}
	for k, v := range vars {
		if got, want := v.Get(), types[k%len(types)].FromRaw(model.Word(k)); got != want {
			t.Fatalf("#%d: Get = %d after writing every cell, want %d", k, got, want)
		}
	}
}

// TestHooksInstalledAfterAllocApply checks that the hook-free fast path
// gives way to hooks installed after allocation on the very next access,
// returns after ClearHooks, and that Reset, RestoreRaw and FlipBit are
// visible through the Vars.
func TestHooksInstalledAfterAllocApply(t *testing.T) {
	var m Map
	a := m.AllocRAM("M", "a", model.Int(8), -3)
	b := m.AllocStack("M", "b", model.Uint(4))
	b.Set(9)
	if a.Get() != -3 || b.Get() != 9 {
		t.Fatalf("before hooks: a=%d b=%d", a.Get(), b.Get())
	}

	m.OnRead(func(info CellInfo, raw model.Word) model.Word {
		if info.ID == b.ID() {
			return raw ^ 0xF0 // beyond the width: masked away before decoding
		}
		return raw ^ 1
	})
	if got := a.Get(); got != -4 {
		t.Errorf("hooked a.Get = %d, want -4 (0xFD ^ 1)", got)
	}
	if got := b.Get(); got != 9 {
		t.Errorf("hooked b.Get = %d, want 9 (the hook's bits are beyond the width)", got)
	}
	if got := a.GetBool(); !got {
		t.Error("hooked a.GetBool = false")
	}
	if got := m.Peek(a.ID()); got != -3 {
		t.Errorf("Peek(a) = %d, want -3 (read hooks never store)", got)
	}

	var seen []string
	m.OnWrite(func(info CellInfo, raw model.Word) { seen = append(seen, fmt.Sprintf("%s=%#x", info.Name, raw)) })
	m.OnWrite(func(info CellInfo, raw model.Word) { seen = append(seen, "second") })
	a.Set(-1)
	b.SetBool(true)
	if got, want := strings.Join(seen, " "), "a=0xff second b=0x1 second"; got != want {
		t.Errorf("write hooks saw %q, want %q", got, want)
	}

	m.ClearHooks()
	seen = nil
	a.Set(5)
	if a.Get() != 5 || b.Get() != 1 || len(seen) != 0 {
		t.Errorf("after ClearHooks: a=%d b=%d, write hooks saw %q", a.Get(), b.Get(), seen)
	}

	m.Reset()
	if a.Get() != -3 || b.Get() != 0 {
		t.Errorf("after Reset: a=%d b=%d, want -3 0", a.Get(), b.Get())
	}
	a.Set(7)
	b.Set(2)
	snap := m.SnapshotInto(nil)
	a.Set(100)
	b.Set(15)
	m.RestoreRaw(snap)
	if a.Get() != 7 || b.Get() != 2 {
		t.Errorf("after RestoreRaw: a=%d b=%d, want 7 2", a.Get(), b.Get())
	}
	if err := m.FlipBit(a.ID(), 7); err != nil {
		t.Fatal(err)
	}
	if got := a.Get(); got != 7-128 {
		t.Errorf("after FlipBit(7): a=%d, want %d", got, 7-128)
	}
}

// TestVarFastPathInlines checks that the compiler inlines the hook-free
// accessors, so a module's state access costs a load or a store and no
// call. Adding to Get or Set can push them over the inlining budget;
// move the extra work into the hooked slow paths instead.
func TestVarFastPathInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with compiler diagnostics")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlinable := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if _, fn, ok := strings.Cut(line, ": can inline "); ok {
			inlinable[fn] = true
		}
	}
	for _, fn := range []string{"(*Var).Get", "(*Var).Set"} {
		if !inlinable[fn] {
			t.Errorf("%s is not inlinable any more", fn)
		}
	}
}
