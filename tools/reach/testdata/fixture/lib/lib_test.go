package lib

import "testing"

// helper is declared in a test file, which reach does not read.
func helper() int { return OnlyTested() }

func TestOnlyTested(t *testing.T) {
	if helper() != 1 {
		t.Fatal("OnlyTested")
	}
}
