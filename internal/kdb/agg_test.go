package kdb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// foldAggregate is the two-pass fold the engine ran before Agg, kept as the
// reference Agg must equal: COUNT counts every non-NULL value; the others
// collect the numeric ones in row order, seed MIN and MAX with the first
// (so a leading NaN stays) and yield NULL when there are none.
func foldAggregate(agg string, rows [][]any, idx int) any {
	var vals []float64
	var count int64
	for _, row := range rows {
		v := row[idx]
		if v == nil {
			continue
		}
		count++
		if f, ok := toFloat(v); ok {
			vals = append(vals, f)
		}
	}
	if agg == "COUNT" {
		return count
	}
	if len(vals) == 0 {
		return nil
	}
	best := vals[0]
	var sum float64
	for _, v := range vals {
		sum += v
		switch agg {
		case "MIN":
			if v < best {
				best = v
			}
		case "MAX":
			if v > best {
				best = v
			}
		}
	}
	switch agg {
	case "AVG":
		return sum / float64(len(vals))
	case "SUM":
		return sum
	}
	return best
}

var aggFns = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// sameResult is bit-for-bit equality, except that any NaN equals any NaN:
// which payload an addition of two NaNs keeps is the hardware's choice, and
// the compiler may swap an addition's operands. -0 still differs from +0.
func sameResult(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf) || math.IsNaN(af) && math.IsNaN(bf)
	}
	return reflect.DeepEqual(a, b)
}

// checkAgg folds vals through the oracle, through Agg.Add, and through the
// typed entry points a column store uses (AddFloat for a numeric cell,
// AddCount for a text one), and requires all three to agree on every
// aggregate.
func checkAgg(t *testing.T, vals []any) {
	t.Helper()
	rows := make([][]any, len(vals))
	var boxed, typed Agg
	for i, v := range vals {
		rows[i] = []any{v}
		boxed.Add(v)
		switch x := v.(type) {
		case nil:
		case string:
			typed.AddCount(1)
		case int64:
			typed.AddFloat(float64(x))
		case float64:
			typed.AddFloat(x)
		case bool:
			f, _ := toFloat(x)
			typed.AddFloat(f)
		}
	}
	for _, fn := range aggFns {
		want := foldAggregate(fn, rows, 0)
		if got := boxed.Result(fn); !sameResult(got, want) {
			t.Fatalf("%s over %#v: Add gives %#v, the oracle %#v", fn, vals, got, want)
		}
		if got := typed.Result(fn); !sameResult(got, want) {
			t.Fatalf("%s over %#v: the typed entry points give %#v, the oracle %#v", fn, vals, got, want)
		}
	}
}

// aggValue maps a byte to one of the values a fold can meet: NULL, NaN, ±0,
// ±Inf, integers, reals, text and booleans.
func aggValue(b byte) any {
	switch b % 9 {
	case 0:
		return nil
	case 1:
		return math.NaN()
	case 2:
		return 0.0
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return int64(b>>4) - 8
	case 5:
		return float64(b>>4)*0.37 - 2.5
	case 6:
		return string(rune('a' + b>>4))
	case 7:
		return b>>4%2 == 0
	}
	return math.Inf(int(b>>4%2)*2 - 1)
}

func TestAggMatchesFoldOracle(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for iter := 0; iter < 2000; iter++ {
		vals := make([]any, r.Intn(12))
		for i := range vals {
			vals[i] = aggValue(byte(r.Intn(256)))
		}
		checkAgg(t, vals)
	}
	// The seeding corner cases, spelled out.
	checkAgg(t, nil)
	checkAgg(t, []any{nil, "text"})
	checkAgg(t, []any{math.NaN(), 1.0, -1.0})
	checkAgg(t, []any{1.0, math.NaN(), -1.0})
	checkAgg(t, []any{math.Copysign(0, -1), 0.0})
	checkAgg(t, []any{0.0, math.Copysign(0, -1)})
	checkAgg(t, []any{int64(math.MaxInt64), int64(1), true})
}

func FuzzAgg(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 1, 22})
	f.Add([]byte{3, 2, 4, 5, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]any, len(data))
		for i, b := range data {
			vals[i] = aggValue(b)
		}
		checkAgg(t, vals)
	})
}
