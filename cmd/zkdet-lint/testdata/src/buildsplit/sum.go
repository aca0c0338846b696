// Package buildsplit is split by architecture the way internal/ff is: one
// file per GOARCH declares add, and the loader must pick exactly one of them.
// Loaded as an internal package, testonly finds no importer of Sum or
// Kernel, but must not flag plain, which only add_other.go calls.
package buildsplit

// Sum adds through whichever add this GOARCH builds.
func Sum(a, b uint64) uint64 { return add(a, b) } // want "Sum is referenced by no non-test code"

// Kernel names the add in use.
func Kernel() string { return kernel } // want "Kernel is referenced by no non-test code"

// plain is the portable addition behind the non-amd64 add.
func plain(a, b uint64) uint64 { return a + b }
