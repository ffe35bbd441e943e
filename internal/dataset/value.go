// Package dataset implements the flat-file data set model of Boral,
// DeWitt and Bates (1982), Section 2.1: a data set is a table of
// attributes (columns) and records (rows), much like a relation.
// Attributes that together uniquely identify each record are category
// attributes (a composite key); the remaining attributes quantify the
// composite value of the category attributes they are associated with.
//
// The package supports the statistical-database peculiarities the paper
// calls out: encoded attribute values interpreted through code tables
// (Figure 2), missing ("invalid") values produced by data checking, and
// derived attributes computed from other columns.
package dataset

import (
	"fmt"
	"strconv"
)

// Kind identifies the physical type of a column.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never describes a real column.
	KindInvalid Kind = iota
	// KindInt holds 64-bit signed integers (also used for encoded values).
	KindInt
	// KindFloat holds 64-bit floating point numbers.
	KindFloat
	// KindString holds variable-length text.
	KindString
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is a single cell value. A Value is either null (missing) or holds
// exactly one of the three physical types. The zero Value is null.
//
// Values are small and passed by value everywhere; bulk access paths use
// the typed column vectors instead. Two Values are equal under == when
// they have the same kind and contents: nulls equal each other, -0
// equals +0, and NaN equals nothing.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the missing value. The paper calls these "invalid" values or,
// in the statistics vernacular, "missing values" (Section 3.1).
var Null = Value{}

// Int returns a Value holding v.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a Value holding v.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a Value holding v.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the physical type of v, or KindInvalid if v is null.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the missing value.
func (v Value) IsNull() bool { return v.kind == KindInvalid }

// Accessor panics are intentional API invariants, not error handling:
// AsInt, AsFloat and AsString panic only on a programming error
// in the caller (asking a value for a type it does not hold). Code that
// handles bytes of unknown provenance — the storage row codec, the
// Summary Database result codec, tape blocks — must therefore never call
// an accessor until it has checked Kind (or IsNull) against what the
// schema promises; those decode paths return storage.ErrCorrupt-class
// errors instead of panicking. The accessors stay panicking because a
// kind mismatch that survives decode validation is a bug to surface
// loudly, not a condition to degrade around.

// AsInt returns the integer held by v. It panics if v does not hold an
// integer — an API invariant (see above); callers must check Kind first
// when the type is not statically known.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		//lint:allow no-panic documented accessor contract (see note above): kind mismatch is a caller bug
		panic(fmt.Sprintf("dataset: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the float held by v. Integer values are widened, which
// mirrors how statistical packages treat integer columns in arithmetic.
// It panics on strings and nulls — an API invariant (see AsInt).
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		//lint:allow no-panic documented accessor contract (see AsInt): kind mismatch is a caller bug
		panic(fmt.Sprintf("dataset: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string held by v. It panics if v does not hold a
// string — an API invariant (see AsInt).
func (v Value) AsString() string {
	if v.kind != KindString {
		//lint:allow no-panic documented accessor contract (see AsInt): kind mismatch is a caller bug
		panic(fmt.Sprintf("dataset: AsString on %s value", v.kind))
	}
	return v.s
}

// String renders the value for display; nulls render as "NA", matching
// the convention of the statistical packages the paper surveys.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "NA"
	}
}
