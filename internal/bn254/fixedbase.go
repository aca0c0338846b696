package bn254

import (
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// fixedBaseWindow is the window width (bits) of the fixed-base table.
const fixedBaseWindow = 8

// G1FixedBaseTable precomputes multiples of a base point so that many scalar
// multiplications of the same base cost ~32 point additions each instead of
// a full double-and-add. SRS generation ([τ^i]G for millions of i) is the
// main consumer.
type G1FixedBaseTable struct {
	// table[w][d-1] = [d · 2^(8w)]B for digit d in [1, 255].
	table [][]G1Affine
}

// NewG1FixedBaseTable builds the table for base b (256/8 = 32 windows of
// 255 entries).
func NewG1FixedBaseTable(b *G1Affine) *G1FixedBaseTable {
	const windows = 256 / fixedBaseWindow
	t := &G1FixedBaseTable{table: make([][]G1Affine, windows)}
	cur := *b
	for w := 0; w < windows; w++ {
		jacs := make([]G1Jac, 255)
		var acc G1Jac
		acc.SetInfinity()
		for d := 1; d <= 255; d++ {
			acc.AddMixed(&cur)
			jacs[d-1] = acc
		}
		t.table[w] = make([]G1Affine, 255)
		g1BatchFromJacobian(t.table[w], jacs)
		// cur = [2^8] cur
		var cj G1Jac
		cj.FromAffine(&cur)
		for i := 0; i < fixedBaseWindow; i++ {
			cj.Double(&cj)
		}
		cur.FromJacobian(&cj)
	}
	return t
}

// MulMany returns [s_i]B for every scalar, in parallel, with batched
// affine conversion.
func (t *G1FixedBaseTable) MulMany(scalars []fr.Element) []G1Affine {
	jacs := make([]G1Jac, len(scalars))
	parallel.Execute(len(scalars), func(start, end int) {
		for i := start; i < end; i++ {
			var acc G1Jac
			acc.SetInfinity()
			b := scalars[i].Bytes()
			for w := 0; w < len(t.table); w++ {
				d := int(b[31-w])
				if d != 0 {
					acc.AddMixed(&t.table[w][d-1])
				}
			}
			jacs[i] = acc
		}
	})
	out := make([]G1Affine, len(scalars))
	g1BatchFromJacobian(out, jacs)
	return out
}
