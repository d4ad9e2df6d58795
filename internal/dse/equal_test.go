package dse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// equalPair is a pair of points for TestPointEqualMatchesDeepEqual:
// B is A, a deep copy of A, or A with one leaf changed — a scalar
// field, or a slice made nil, empty, longer or different in one
// element.
type equalPair struct{ A, B Point }

// fillEqual fills v by reflection from small value pools, so that two
// independently filled values are often equal field by field; slices
// are nil, empty or short.
func fillEqual(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillEqual(v.Field(i), r)
		}
	case reflect.Slice:
		switch r.Intn(3) {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, r.Intn(2)))
		default:
			s := reflect.MakeSlice(v.Type(), 1+r.Intn(3), 4)
			for i := 0; i < s.Len(); i++ {
				fillEqual(s.Index(i), r)
			}
			v.Set(s)
		}
	case reflect.String:
		v.SetString([]string{"", "a", "mesh", "list"}[r.Intn(4)])
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(r.Intn(3) - 1))
	case reflect.Uint64:
		v.SetUint(uint64(r.Intn(3)))
	default:
		panic("fillEqual: unhandled kind " + v.Kind().String())
	}
}

// deepCopy returns a copy of v whose slices own fresh backing arrays
// (keeping nil and empty apart).
func deepCopy(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
	case reflect.Slice:
		if v.IsNil() {
			return out
		}
		s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			s.Index(i).Set(deepCopy(v.Index(i)))
		}
		out.Set(s)
	default:
		out.Set(v)
	}
	return out
}

// leaves appends every settable leaf of v — scalars and slices — in
// field order.
func leaves(v reflect.Value, out []reflect.Value) []reflect.Value {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			out = leaves(v.Field(i), out)
		}
		return out
	}
	return append(out, v)
}

// mutate changes leaf v so that the whole value differs under
// reflect.DeepEqual.
func mutate(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Slice:
		switch {
		case v.IsNil():
			v.Set(reflect.MakeSlice(v.Type(), 0, 0)) // nil -> empty
		case v.Len() == 0:
			v.Set(reflect.Zero(v.Type())) // empty -> nil
		case r.Intn(2) == 0:
			v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
		default:
			el := leaves(v.Index(r.Intn(v.Len())), nil)
			mutate(el[r.Intn(len(el))], r)
		}
	default:
		panic("mutate: unhandled kind " + v.Kind().String())
	}
}

// Generate implements quick.Generator.
func (equalPair) Generate(r *rand.Rand, _ int) reflect.Value {
	var p equalPair
	a := reflect.ValueOf(&p.A).Elem()
	fillEqual(a, r)
	b := deepCopy(a)
	switch r.Intn(4) {
	case 0: // an equal copy
	case 1: // an independently drawn point, sometimes equal
		b = reflect.New(a.Type()).Elem()
		fillEqual(b, r)
	default: // one leaf changed
		ls := leaves(b, nil)
		mutate(ls[r.Intn(len(ls))], r)
	}
	p.B = b.Interface().(Point)
	return reflect.ValueOf(p)
}

// TestPointEqualMatchesDeepEqual: Point.Equal, the accumulator's
// check of every result against the expansion, is exactly
// reflect.DeepEqual — nil versus empty slices included — on random
// pairs of equal, deep-copied, independent and single-leaf-changed
// points. Filling and mutating walk the type by reflection, so a field
// added to Point, PlatSpec, AppRef, CalProbe or MixGroup but not to
// Equal fails it.
func TestPointEqualMatchesDeepEqual(t *testing.T) {
	var equal, differ int
	f := func(p equalPair) bool {
		want := reflect.DeepEqual(p.A, p.B)
		if want {
			equal++
		} else {
			differ++
		}
		return p.A.Equal(p.B) == want && p.B.Equal(p.A) == want
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(20261018))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if equal < 1000 || differ < 1000 {
		t.Fatalf("%d equal and %d differing pairs: the check would be lopsided", equal, differ)
	}
	// Every single leaf matters, one at a time.
	r := rand.New(rand.NewSource(1))
	var a Point
	fillEqual(reflect.ValueOf(&a).Elem(), r)
	n := len(leaves(reflect.ValueOf(a), nil))
	for i := 0; i < n; i++ {
		b := deepCopy(reflect.ValueOf(a))
		mutate(leaves(b, nil)[i], r)
		if bp := b.Interface().(Point); a.Equal(bp) {
			t.Fatalf("leaf %d changed, Equal still true: %+v vs %+v", i, a, bp)
		}
	}
}
