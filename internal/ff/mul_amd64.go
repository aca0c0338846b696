package ff

// hasADX reports whether this CPU has the ADX (ADCX/ADOX) and BMI2 (MULX)
// extensions mulADX is written in: Broadwell / Zen and later. It is read
// once per NewField, never per multiplication.
var hasADX = cpuHasADX()

// cpuHasADX queries CPUID leaf 7 (mul_amd64.s).
func cpuHasADX() bool

// mulADX sets z = x·y·2^-256 mod q, fully reduced, for x, y < q and a
// modulus q of at most 254 bits with inv = -q^-1 mod 2^64 (mul_amd64.s).
// It computes limb for limb what mulUnrolled computes, z may alias x and y,
// and its running time does not depend on the operands.
//
//go:noescape
func mulADX(z, x, y *Element, q *[Limbs]uint64, inv uint64)
