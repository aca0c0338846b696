// Package lib is the package the testonly fixture reports on: the run
// requests it alone, yet reads every package of the fixture module.
package lib

import "fmt"

// UsedByUser is called by the user package, which the run does not report
// on.
func UsedByUser() int { return viaUsed() }

// viaUsed is reached through UsedByUser.
func viaUsed() int { return 1 }

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 2 } // want "OnlyTests is referenced by no non-test code"

// nowhere is called by nothing.
func nowhere() {} // want "nowhere is referenced by no non-test code"

// countdown calls only itself, which is no reference.
func countdown(n int) int { // want "countdown is referenced by no non-test code"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// limit is a constant no code reads.
const limit = 8 // want "limit is referenced by no non-test code"

// Kind is used by user.
type Kind int

// String satisfies fmt.Stringer, so fmt may call it.
func (k Kind) String() string { return fmt.Sprintf("kind %d", int(k)) }

// Label matches no interface and has no caller.
func (k Kind) Label() string { return "label" } // want "Kind.Label is referenced by no non-test code"

// Shape is the module's own interface; user calls Area through it.
type Shape interface{ Area() int }

// Square implements Shape; nothing names Square.Area.
type Square struct{ Side int }

// Area satisfies Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Record's exported fields: user reads Name, nothing reads Spare.
type Record struct {
	Name  string
	Spare int // want "Record.Spare is referenced by no non-test code"
}

// Point's fields are set by user's unkeyed literal alone.
type Point struct{ X, Y int }

// orphan is named only by its method's receiver, which is no reference.
type orphan struct{} // want "orphan is referenced by no non-test code"

// String satisfies fmt.Stringer.
func (orphan) String() string { return "orphan" }

// Hook is only called by tests elsewhere, and says so.
//
//lint:ignore testonly the user package's tests call it
func Hook() {}
