// Package nested is a module of its own, outside the fixture module.
package nested

// Unused is in another module, so reach does not count it.
func Unused() {}
