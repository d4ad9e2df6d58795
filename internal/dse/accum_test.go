package dse

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAccumulatorRebuildsResults: the Accumulator keeps an accepted
// result as its Metrics and Err beside the expansion, and Results and
// Completed rebuild each result from its expanded point. They equal the
// decoded results a caller fed in — the values an Accumulator holding
// whole Results returned — for a partially and a fully accepted sweep,
// including a point whose line records an evaluation error.
func TestAccumulatorRebuildsResults(t *testing.T) {
	points := expandSweep(t, "plat=homog2,homog4;wl=carradio,jpeg,multi:jpeg+synth8;heur=list,anneal", 9)
	results := append([]Result(nil), (&Engine{Workers: 1}).Run(points)...)
	const errID = 3
	results[errID].Metrics = Metrics{}
	results[errID].Err = "injected evaluation failure"
	lines := make([][]byte, len(results))
	decoded := make([]Result, len(results))
	for i, r := range results {
		var buf bytes.Buffer
		if err := WriteResult(&buf, r); err != nil {
			t.Fatal(err)
		}
		lines[i] = buf.Bytes()
		d, err := DecodeResult(lines[i])
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = d
	}
	if !reflect.DeepEqual(decoded[errID], results[errID]) {
		t.Fatalf("the Err line decodes to %+v, want %+v", decoded[errID], results[errID])
	}
	acc := NewAccumulator(points)
	check := func(stage string) {
		t.Helper()
		wantAll := make([]Result, len(points))
		wantDone := []Result{}
		for id := range points {
			if acc.Has(id) {
				wantAll[id] = decoded[id]
				wantDone = append(wantDone, decoded[id])
			}
		}
		if got := acc.Results(); !reflect.DeepEqual(got, wantAll) {
			t.Fatalf("%s: Results differs from the accepted results", stage)
		}
		if got := acc.Completed(); !reflect.DeepEqual(got, wantDone) {
			t.Fatalf("%s: Completed differs from the accepted results", stage)
		}
	}
	check("empty")
	for _, id := range []int{errID, 0, len(points) - 1, 5} {
		if added, err := acc.AddResult(decoded[id], lines[id]); err != nil || !added {
			t.Fatalf("point %d: AddResult = %v, %v", id, added, err)
		}
	}
	check("partial")
	for id := range points {
		if _, err := acc.AddResult(decoded[id], lines[id]); err != nil {
			t.Fatalf("point %d: %v", id, err)
		}
	}
	if !acc.Complete() {
		t.Fatal("accumulator incomplete after every line")
	}
	check("complete")
}
