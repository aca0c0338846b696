// Package contracts (fixture) seeds positive and negative cases for the
// gaspurity analyzer, which only fires inside the contracts package.
package contracts

import (
	"github.com/zkdet/zkdet/internal/chain"
)

// discardedSet drops the SSTORE error: an out-of-gas would not abort.
func discardedSet(ctx *chain.CallContext) {
	ctx.Store.Set("slot", []byte{1}) // want "discarded error of metered operation Set"
}

// discardedDelete drops the clear error.
func discardedDelete(ctx *chain.CallContext) {
	ctx.Store.Delete("slot") // want "discarded error of metered operation Delete"
}

// blankCharge launders the out-of-gas signal into the blank identifier.
func blankCharge(ctx *chain.CallContext) {
	_ = ctx.Gas.Charge(5000) // want "metered operation Charge assigned to blank"
}

// discardedEmit drops log-gas accounting.
func discardedEmit(ctx *chain.CallContext) {
	ctx.EmitIndexed("Transfer", nil, nil) // want "discarded error of metered operation EmitIndexed"
}

// shadowStore writes outside the meter entirely.
func shadowStore() *chain.Storage {
	s := chain.NewStorage() // want "unmetered store"
	return s
}

// Negative cases: the required shapes.

// properSet checks every metered error.
func properSet(ctx *chain.CallContext) error {
	if err := ctx.Gas.Charge(100); err != nil {
		return err
	}
	if err := ctx.Store.Set("slot", []byte{1}); err != nil {
		return err
	}
	return ctx.EmitIndexed("Stored", nil, nil)
}

// readsAreFine ignores a read result only for the value, not the error.
func readsAreFine(ctx *chain.CallContext) ([]byte, error) {
	return ctx.Store.Get("slot")
}
