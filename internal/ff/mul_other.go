//go:build !amd64

package ff

// Only amd64 has an assembly multiplication; everywhere else NewField never
// selects it and Field.Mul runs the pure-Go kernels.
const hasADX = false

// mulADX keeps Field.Mul's dispatch and the kernel tests compiling on every
// GOARCH. It is mulUnrolled on the same modulus.
func mulADX(z, x, y *Element, q *[Limbs]uint64, inv uint64) {
	f := Field{modulus: *q, inv: inv}
	f.mulUnrolled(z, x, y)
}
