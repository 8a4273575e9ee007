package model

import (
	"fmt"
	"strconv"
)

// Word is the value carried by a signal. All signals are fixed-width
// integers (the paper's target is an 8/16-bit embedded platform); booleans
// are 1-bit words holding 0 or 1. Word is wide enough to hold any
// supported width (up to 32 bits unsigned is stored in the low bits of the
// int64 to keep masking trivial).
type Word = int64

// Type describes the value domain of a signal.
type Type struct {
	// Name is a human-readable type name, e.g. "uint16" or "bool".
	Name string
	// Width is the number of significant bits, 1..32. Writes to a signal
	// are masked to Width bits, which gives hardware-counter wrap-around
	// semantics for free.
	Width uint8
	// Signed selects two's-complement interpretation on reads.
	Signed bool
	// IsBool marks 1-bit boolean signals. The paper's EA mechanisms are
	// explicitly "not geared at boolean values" (Table 2), so placement
	// rules need to know.
	IsBool bool
}

// Uint returns an unsigned integer type of the given bit width.
func Uint(width uint8) Type {
	return Type{Name: "uint" + strconv.Itoa(int(width)), Width: width}
}

// Int returns a signed two's-complement integer type of the given width.
func Int(width uint8) Type {
	return Type{Name: "int" + strconv.Itoa(int(width)), Width: width, Signed: true}
}

// Bool returns the 1-bit boolean type.
func Bool() Type {
	return Type{Name: "bool", Width: 1, IsBool: true}
}

// Validate reports whether the type is well formed.
func (t Type) Validate() error {
	if t.Width < 1 || t.Width > 32 {
		return fmt.Errorf("model: type %q has unsupported width %d (want 1..32)", t.Name, t.Width)
	}
	if t.IsBool && t.Width != 1 {
		return fmt.Errorf("model: boolean type %q must have width 1, got %d", t.Name, t.Width)
	}
	if t.IsBool && t.Signed {
		return fmt.Errorf("model: boolean type %q cannot be signed", t.Name)
	}
	return nil
}

// Mask returns the bit mask selecting the significant bits of the type.
func (t Type) Mask() Word {
	return (Word(1) << t.Width) - 1
}

// FromRaw interprets a stored (masked) bit pattern according to the type,
// sign-extending two's-complement values for signed types.
func (t Type) FromRaw(raw Word) Word { return t.Codec().Decode(raw) }

// ToRaw converts an interpreted value to the stored masked representation.
func (t Type) ToRaw(v Word) Word { return t.Codec().Encode(v) }

// Codec returns the type's precomputed word codec.
func (t Type) Codec() Codec {
	c := Codec{mask: t.Mask()}
	if t.Signed {
		c.sign = Word(1) << (t.Width - 1)
	}
	return c
}

// Codec is a Type's decode and encode with the width mask and sign bit
// computed once. The bus and the memory map keep one per signal and per
// cell, so a per-slot access costs a mask and, for signed types, one
// xor and one subtraction.
type Codec struct {
	mask Word // the Width significant bits
	sign Word // the sign bit of a signed type; 0 when unsigned
}

// Decode interprets a raw word: it keeps the significant bits and
// sign-extends them. (raw ^ sign) - sign subtracts 2^Width exactly when
// the sign bit is set and is the identity when sign is 0.
func (c Codec) Decode(raw Word) Word {
	raw &= c.mask
	return (raw ^ c.sign) - c.sign
}

// Encode converts an interpreted value to the stored masked word.
func (c Codec) Encode(v Word) Word { return v & c.mask }

// Bits returns the width mask and the sign bit (0 when unsigned), for a
// holder of one word that spells Decode and Encode out inline.
func (c Codec) Bits() (mask, sign Word) { return c.mask, c.sign }

// MaxUnsigned returns the largest storable raw value.
func (t Type) MaxUnsigned() Word {
	return t.Mask()
}

// String implements fmt.Stringer.
func (t Type) String() string { return t.Name }
