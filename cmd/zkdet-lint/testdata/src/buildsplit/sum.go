// Package buildsplit is split by architecture the way internal/ff is: one
// file per GOARCH declares add, and the loader must pick exactly one of them.
package buildsplit

// Sum adds through whichever add this GOARCH builds.
func Sum(a, b uint64) uint64 { return add(a, b) }

// Kernel names the add in use.
func Kernel() string { return kernel }
