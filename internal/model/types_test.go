package model

import (
	"testing"
	"testing/quick"
)

func TestTypeConstructors(t *testing.T) {
	tests := []struct {
		name     string
		typ      Type
		wantName string
		wantW    uint8
		signed   bool
		boolean  bool
	}{
		{"uint16", Uint(16), "uint16", 16, false, false},
		{"uint10", Uint(10), "uint10", 10, false, false},
		{"uint1", Uint(1), "uint1", 1, false, false},
		{"int8", Int(8), "int8", 8, true, false},
		{"int32", Int(32), "int32", 32, true, false},
		{"bool", Bool(), "bool", 1, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.typ.Name; got != tt.wantName {
				t.Errorf("Name = %q, want %q", got, tt.wantName)
			}
			if got := tt.typ.Width; got != tt.wantW {
				t.Errorf("Width = %d, want %d", got, tt.wantW)
			}
			if got := tt.typ.Signed; got != tt.signed {
				t.Errorf("Signed = %v, want %v", got, tt.signed)
			}
			if got := tt.typ.IsBool; got != tt.boolean {
				t.Errorf("IsBool = %v, want %v", got, tt.boolean)
			}
			if err := tt.typ.Validate(); err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
		})
	}
}

func TestTypeValidateRejectsBadTypes(t *testing.T) {
	tests := []struct {
		name string
		typ  Type
	}{
		{"zero width", Type{Name: "z", Width: 0}},
		{"too wide", Type{Name: "w", Width: 33}},
		{"wide bool", Type{Name: "b", Width: 2, IsBool: true}},
		{"signed bool", Type{Name: "sb", Width: 1, IsBool: true, Signed: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.typ.Validate(); err == nil {
				t.Errorf("Validate() = nil, want error for %+v", tt.typ)
			}
		})
	}
}

func TestTypeMask(t *testing.T) {
	tests := []struct {
		width uint8
		want  Word
	}{
		{1, 0x1},
		{8, 0xFF},
		{10, 0x3FF},
		{16, 0xFFFF},
		{32, 0xFFFFFFFF},
	}
	for _, tt := range tests {
		if got := Uint(tt.width).Mask(); got != tt.want {
			t.Errorf("Uint(%d).Mask() = %#x, want %#x", tt.width, got, tt.want)
		}
	}
}

func TestSignedRoundTrip(t *testing.T) {
	tests := []struct {
		typ  Type
		in   Word
		want Word
	}{
		{Int(8), 127, 127},
		{Int(8), -128, -128},
		{Int(8), 128, -128}, // wraps
		{Int(8), 255, -1},   // wraps
		{Int(16), -1, -1},
		{Int(16), 32768, -32768},
		{Uint(16), 65536, 0}, // counter wrap
		{Uint(16), 65535, 65535},
		{Uint(10), 1024, 0},
	}
	for _, tt := range tests {
		raw := tt.typ.ToRaw(tt.in)
		if got := tt.typ.FromRaw(raw); got != tt.want {
			t.Errorf("%s round trip of %d = %d, want %d", tt.typ, tt.in, got, tt.want)
		}
	}
}

func TestFromRawMasksBeforeInterpreting(t *testing.T) {
	typ := Int(8)
	// Raw pattern with garbage above bit 7 must be ignored.
	if got := typ.FromRaw(0xF00FF); got != -1 {
		t.Errorf("FromRaw(0xF00FF) = %d, want -1", got)
	}
}

// Property: for every unsigned type, Canon is idempotent and FromRaw of a
// canonical value is within [0, MaxUnsigned].
func TestQuickUnsignedCanonIdempotent(t *testing.T) {
	f := func(width8 uint8, v Word) bool {
		width := width8%32 + 1
		typ := Uint(width)
		c := typ.Canon(v)
		if typ.Canon(c) != c {
			return false
		}
		got := typ.FromRaw(c)
		return got >= 0 && got <= typ.MaxUnsigned()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: signed interpretation stays within the two's-complement range
// and ToRaw∘FromRaw is the identity on raw patterns.
func TestQuickSignedRangeAndRawIdentity(t *testing.T) {
	f := func(width8 uint8, v Word) bool {
		width := width8%32 + 1
		typ := Int(width)
		raw := typ.Canon(v)
		iv := typ.FromRaw(raw)
		lo := -(Word(1) << (width - 1))
		hi := Word(1)<<(width-1) - 1
		if iv < lo || iv > hi {
			return false
		}
		return typ.ToRaw(iv) == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Canon canonicalizes a raw word to the type's domain: the value is
// truncated to Width bits. The stored representation is always the masked
// unsigned pattern; interpretation as signed happens in FromRaw.
func (t Type) Canon(v Word) Word { return t.ToRaw(v) }
