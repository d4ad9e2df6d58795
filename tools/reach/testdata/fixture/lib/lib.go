// Package lib plants the cases reach must tell apart.
package lib

var total int

func init() { total++ }

func init() { total++ }

// Used is what cmd/app calls.
func Used() int {
	b := &Box[string]{v: "x"}
	return store(total) + len(b.Get())
}

// store is generic: nm names its instance store[go.shape.int].
func store[T any](v T) T { return v }

// Box is a generic type: nm names its method (*Box[go.shape.string]).Get.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// OnlyTested is reached by lib's test alone.
func OnlyTested() int { return 1 }

// Listed is reached by nothing; allow.txt keeps it.
func Listed() int { return 2 }
