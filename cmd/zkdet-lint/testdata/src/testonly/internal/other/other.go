// Package other is internal too, but the run does not request it, so its
// unreferenced declaration is not reported.
package other

// Unreported has no caller.
func Unreported() {}
