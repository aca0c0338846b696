// Package user is the fixture module's user of lib.
package user

import (
	"fmt"

	"fixture/testonly/internal/lib"
)

// Use reaches lib's exported API the way a command would.
func Use() string {
	var s lib.Shape = lib.Square{Side: 2}
	r := lib.Record{Name: "r"}
	return fmt.Sprint(lib.UsedByUser(), lib.Kind(1), s.Area(), r.Name, lib.Point{1, 2})
}
