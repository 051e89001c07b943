package kdb

import (
	"math"
	"testing"
)

// The engine's value ordering (compareOrder, exported as CompareOrder) and
// tuple encoding (appendGroupKey, exported as EncodeKey) order and bucket
// every executor's results through shape.go. These tests pin the
// properties that relies on: a total, deterministic, antisymmetric order;
// bucket-equality implying order-equality; and the documented mixed-type
// behaviours (int/float compare numerically but encode apart; text vs
// numeric falls back to type-name order).

// propCorpus is a value set spanning every engine type plus edge values.
func propCorpus() []any {
	return []any{
		nil,
		int64(math.MinInt64), int64(-7), int64(0), int64(5), int64(6), int64(math.MaxInt64),
		float64(math.Inf(-1)), float64(-7.5), math.Copysign(0, -1), float64(0), float64(5), float64(5.5), float64(math.Inf(1)),
		"", "a", "ab", "b", "5",
		true, false,
	}
}

func TestCompareOrderTotalOrderProperties(t *testing.T) {
	vals := propCorpus()
	for _, a := range vals {
		if c := CompareOrder(a, a); c != 0 {
			t.Errorf("CompareOrder(%#v, %#v) = %d, want 0 (reflexivity)", a, a, c)
		}
		for _, b := range vals {
			ab, ba := CompareOrder(a, b), CompareOrder(b, a)
			if ab != -ba {
				t.Errorf("CompareOrder(%#v, %#v) = %d but reversed = %d (antisymmetry)", a, b, ab, ba)
			}
			if again := CompareOrder(a, b); again != ab {
				t.Errorf("CompareOrder(%#v, %#v) flapped: %d then %d", a, b, ab, again)
			}
			// Bucket equality must imply order equality: values the GROUP
			// BY / DISTINCT key encoding collapses together cannot sort
			// apart, or merge output order would diverge from the engine.
			if EncodeKey([]any{a}) == EncodeKey([]any{b}) && ab != 0 {
				t.Errorf("EncodeKey equal but CompareOrder(%#v, %#v) = %d", a, b, ab)
			}
		}
	}
}

// TestCompareOrderTransitivity checks transitivity over the NaN-free
// corpus. NaN is excluded by design: compareValues reports NaN equal to
// every float (both < and > are false), so NaN breaks transitivity of
// equality — columns containing NaN rely on appendGroupKey (which tags all
// NaNs identically) rather than ordering, and the columnar store must do
// the same.
func TestCompareOrderTransitivity(t *testing.T) {
	vals := propCorpus()
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if CompareOrder(a, b) <= 0 && CompareOrder(b, c) <= 0 && CompareOrder(a, c) > 0 {
					t.Errorf("transitivity violated: %#v <= %#v <= %#v but CompareOrder(a,c) > 0", a, b, c)
				}
			}
		}
	}
}

func TestCompareOrderMixedTypes(t *testing.T) {
	// Ints and floats compare numerically...
	if CompareOrder(int64(5), float64(5)) != 0 {
		t.Error("int64(5) and float64(5) should compare equal")
	}
	if CompareOrder(int64(5), float64(5.5)) >= 0 || CompareOrder(float64(5.5), int64(6)) >= 0 {
		t.Error("int/float numeric order broken")
	}
	// ...but encode apart: the group-key encoding is type-tagged, so a
	// mixed-type column (impossible via coerce, possible in merged tuples)
	// buckets int64(5) and float64(5) separately. The relationship is
	// one-directional: EncodeKey-equal ⟹ CompareOrder-equal, never the
	// reverse.
	if EncodeKey([]any{int64(5)}) == EncodeKey([]any{float64(5)}) {
		t.Error("int64(5) and float64(5) should encode apart")
	}
	// NULLs order first and encode distinctly.
	for _, v := range propCorpus()[1:] {
		if CompareOrder(nil, v) != -1 || CompareOrder(v, nil) != 1 {
			t.Errorf("NULL must order before %#v", v)
		}
		if EncodeKey([]any{nil}) == EncodeKey([]any{v}) {
			t.Errorf("NULL encodes like %#v", v)
		}
	}
	// Text vs numeric is uncomparable; compareOrder stays deterministic by
	// ordering on the Go type name (float64 < int64 < string).
	if CompareOrder("5", int64(5)) != 1 || CompareOrder(int64(5), "5") != -1 {
		t.Error("text-vs-int type-name fallback broken")
	}
	if CompareOrder("5", float64(5)) != 1 || CompareOrder(float64(5), "5") != -1 {
		t.Error("text-vs-float type-name fallback broken")
	}
	// Multi-column keys: position matters, concatenation cannot alias.
	if EncodeKey([]any{"ab", "c"}) == EncodeKey([]any{"a", "bc"}) {
		t.Error("tuple encoding aliases across column boundaries")
	}
}

// FuzzCompareOrderEncodeKey drives the same invariants from generated
// values: decode two engine values from the fuzz input, then require
// antisymmetry, determinism, and bucket⟹order consistency.
func FuzzCompareOrderEncodeKey(f *testing.F) {
	f.Add(uint8(0), int64(0), 0.0, "", uint8(1), int64(5), 5.0, "x")
	f.Add(uint8(2), int64(-1), math.NaN(), "a", uint8(2), int64(-1), math.NaN(), "a")
	f.Add(uint8(3), int64(9), -0.0, "b", uint8(2), int64(9), 0.0, "b")
	f.Add(uint8(1), int64(math.MaxInt64), 1e300, "", uint8(2), int64(math.MinInt64), -1e300, "")
	decode := func(kind uint8, i int64, fl float64, s string) any {
		switch kind % 4 {
		case 0:
			return nil
		case 1:
			return i
		case 2:
			return fl
		default:
			return s
		}
	}
	f.Fuzz(func(t *testing.T, ak uint8, ai int64, af float64, as string, bk uint8, bi int64, bf float64, bs string) {
		a := decode(ak, ai, af, as)
		b := decode(bk, bi, bf, bs)
		ab, ba := CompareOrder(a, b), CompareOrder(b, a)
		if ab != -ba {
			t.Fatalf("antisymmetry: CompareOrder(%#v,%#v)=%d reversed=%d", a, b, ab, ba)
		}
		if CompareOrder(a, b) != ab {
			t.Fatalf("nondeterministic compare for %#v vs %#v", a, b)
		}
		if CompareOrder(a, a) != 0 || CompareOrder(b, b) != 0 {
			t.Fatalf("reflexivity broken for %#v / %#v", a, b)
		}
		ka, kb := EncodeKey([]any{a}), EncodeKey([]any{b})
		if ka != EncodeKey([]any{a}) {
			t.Fatalf("nondeterministic encoding for %#v", a)
		}
		if ka == kb && ab != 0 {
			t.Fatalf("EncodeKey equal but CompareOrder(%#v,%#v)=%d", a, b, ab)
		}
	})
}
