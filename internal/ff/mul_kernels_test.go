package ff

import (
	"bytes"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Moduli the kernel tests run over: the two BN254 fields, and two primes
// whose shape the BN254 ones do not have — the 252-bit STARK prime
// 2^251 + 17·2^192 + 1 (two zero middle limbs, low limb 1, so inv = 2^64-1)
// and the 127-bit Mersenne prime (two zero top limbs, all-ones low limb).
var (
	testStark = MustNewField("3618502788666131213697322783095070105623107215331596699973092056135872020481")
	testM127  = MustNewField("170141183460469231731687303715884105727")
)

func kernelFields() map[string]*Field {
	fields := testFields()
	fields["stark252"], fields["m127"] = testStark, testM127
	return fields
}

// A mulKernel is one body of Field.Mul, called directly.
type mulKernel struct {
	name string
	mul  func(f *Field, z, x, y *Element)
}

var (
	kernelADX      = mulKernel{"adx", func(f *Field, z, x, y *Element) { mulADX(z, x, y, &f.modulus, f.inv) }}
	kernelUnrolled = mulKernel{"unrolled", (*Field).mulUnrolled}
	kernelGeneric  = mulKernel{"generic", (*Field).mulGeneric}
)

// requireADX skips, naming what is missing, so that a run which never
// reached the assembly says so in its log.
func requireADX(tb testing.TB) {
	tb.Helper()
	if runtime.GOARCH != "amd64" {
		tb.Skipf("mulADX not exercised: GOARCH=%s has no assembly kernel (Field.Mul runs mulUnrolled)", runtime.GOARCH)
	}
	if !hasADX {
		tb.Skip("mulADX not exercised: CPUID leaf 7 reports no ADX+BMI2 (adx, bmi2 in /proc/cpuinfo); Field.Mul runs mulUnrolled")
	}
}

// mulOracle returns the function (x, y) → x·y·2^-256 mod p on raw limbs,
// computed through big.Int.
func mulOracle(f *Field) func(x, y *Element) Element {
	rInv := new(big.Int).ModInverse(limbsToBig((*[Limbs]uint64)(&f.r)), f.modBig)
	return func(x, y *Element) Element {
		v := new(big.Int).Mul(limbsToBig((*[Limbs]uint64)(x)), limbsToBig((*[Limbs]uint64)(y)))
		v.Mul(v, rInv).Mod(v, f.modBig)
		var z Element
		bigToLimbs(v, (*[Limbs]uint64)(&z))
		return z
	}
}

// isReduced reports whether the raw limbs of x are below the modulus.
func isReduced(f *Field, x *Element) bool {
	for i := Limbs - 1; i >= 0; i-- {
		if x[i] != f.modulus[i] {
			return x[i] < f.modulus[i]
		}
	}
	return false
}

// randomReduced draws uniform raw limbs below the modulus by rejection.
func randomReduced(rng *rand.Rand, f *Field) Element {
	for {
		var x Element
		for i := 0; i < (f.bitLen+63)/64; i++ {
			x[i] = rng.Uint64()
		}
		if top := f.bitLen % 64; top != 0 {
			x[(f.bitLen-1)/64] &= 1<<top - 1
		}
		if isReduced(f, &x) {
			return x
		}
	}
}

// edgeElements returns the raw-limb values where carries and the final
// subtraction are most likely to go wrong: 0, 1, p-1, R, R², every single
// bit below p, and every pattern of all-ones limbs capped below p.
func edgeElements(f *Field) []Element {
	edges := []Element{{}, {1}, Element(f.modMinus1), f.r, f.r2}
	for k := 0; k < f.bitLen; k++ {
		var x Element
		x[k/64] = 1 << (k % 64)
		if isReduced(f, &x) {
			edges = append(edges, x)
		}
	}
	top := (f.bitLen - 1) / 64 // the modulus's highest non-zero limb
	for mask := 1; mask < 1<<(top+1); mask++ {
		var x Element
		for i := 0; i <= top; i++ {
			if mask>>i&1 == 1 {
				x[i] = ^uint64(0)
			}
		}
		if !isReduced(f, &x) {
			x[top] = f.modulus[top] - 1
		}
		edges = append(edges, x)
	}
	return edges
}

// checkKernelsOn runs every kernel on x·y, and on every aliasing of z, x
// and y when aliased is set, and compares limbs: replicas on different CPUs
// run different kernels and must still produce identical state roots
// (DESIGN.md §16.2), so agreeing modulo p is not enough.
func checkKernelsOn(t *testing.T, f *Field, kernels []mulKernel, x, y *Element, want *Element, aliased bool) {
	t.Helper()
	var ref Element
	kernels[0].mul(f, &ref, x, y)
	if want != nil && ref != *want {
		t.Fatalf("%s: %x * %x = %x, big.Int says %x", kernels[0].name, *x, *y, ref, *want)
	}
	for _, k := range kernels[1:] {
		var z Element
		k.mul(f, &z, x, y)
		if z != ref {
			t.Fatalf("%x * %x: %s = %x, %s = %x", *x, *y, k.name, z, kernels[0].name, ref)
		}
	}
	if !aliased {
		return
	}
	var sq Element
	kernels[0].mul(f, &sq, x, x)
	for _, k := range kernels {
		zx, zy := *x, *y
		k.mul(f, &zx, &zx, y) // z = x
		k.mul(f, &zy, x, &zy) // z = y
		if zx != ref || zy != ref {
			t.Fatalf("%s, %x * %x: z=x gives %x, z=y gives %x, want %x", k.name, *x, *y, zx, zy, ref)
		}
		var z Element
		k.mul(f, &z, x, x) // x = y
		all := *x
		k.mul(f, &all, &all, &all) // z = x = y
		if z != sq || all != sq {
			t.Fatalf("%s, %x squared: x=y gives %x, z=x=y gives %x, want %x", k.name, *x, z, all, sq)
		}
	}
}

// TestMulKernelsAgree is the differential test of the assembly kernel:
// mulADX, mulUnrolled and mulGeneric must return the same limbs as each
// other and as big.Int, on a million random reduced pairs per BN254 field,
// on the cross product of the edge values, and under every aliasing.
func TestMulKernelsAgree(t *testing.T) {
	requireADX(t)
	kernels := []mulKernel{kernelADX, kernelUnrolled, kernelGeneric}
	for name, f := range kernelFields() {
		t.Run(name, func(t *testing.T) {
			if !f.unrolled {
				t.Fatalf("%d-bit modulus does not take the no-carry kernels", f.bitLen)
			}
			oracle := mulOracle(f)
			edges := edgeElements(f)
			for i := range edges {
				if !isReduced(f, &edges[i]) {
					t.Fatalf("edge value %x is not reduced", edges[i])
				}
				for j := range edges {
					want := oracle(&edges[i], &edges[j])
					checkKernelsOn(t, f, kernels, &edges[i], &edges[j], &want, true)
				}
			}
			n := 100_000
			if f == testFp || f == testFr {
				n = 1_000_000
			}
			if testing.Short() {
				n /= 20
			}
			rng := rand.New(rand.NewSource(int64(f.modulus[0])))
			for i := 0; i < n; i++ {
				x, y := randomReduced(rng, f), randomReduced(rng, f)
				// The oracle and the aliased forms cost ten kernels' worth;
				// one pair in 16 takes them.
				if i%16 == 0 {
					want := oracle(&x, &y)
					checkKernelsOn(t, f, kernels, &x, &y, &want, true)
				} else {
					checkKernelsOn(t, f, kernels, &x, &y, nil, false)
				}
			}
		})
	}
}

// TestFieldSelectsKernel pins the dispatch rule: the assembly runs exactly
// where the CPU has it and the modulus allows the no-carry form.
func TestFieldSelectsKernel(t *testing.T) {
	wide := MustNewField("115792089237316195423570985008687907853269984665640564039457584007908834671663") // secp256k1, 256 bits
	if wide.unrolled || wide.adx {
		t.Fatalf("256-bit modulus must take mulGeneric, got unrolled=%v adx=%v", wide.unrolled, wide.adx)
	}
	for name, f := range kernelFields() {
		if !f.unrolled || f.adx != hasADX {
			t.Errorf("%s: unrolled=%v adx=%v with hasADX=%v", name, f.unrolled, f.adx, hasADX)
		}
	}
}

// TestConstructorsReturnReduced checks Mul's precondition at its source:
// every way the package hands out an Element yields limbs below p, whatever
// the input.
func TestConstructorsReturnReduced(t *testing.T) {
	ff32 := bytes.Repeat([]byte{0xff}, 32)
	for name, f := range kernelFields() {
		t.Run(name, func(t *testing.T) {
			check := func(what string, x Element) {
				t.Helper()
				if !isReduced(f, &x) {
					t.Errorf("%s returned unreduced limbs %x", what, x)
				}
			}
			check("Zero", f.Zero())
			check("One", f.One())
			for _, v := range []uint64{0, 1, 96, 97, 98, 1 << 63, ^uint64(0)} {
				x := f.FromUint64(v)
				check("FromUint64", x)
				if want := new(big.Int).Mod(new(big.Int).SetUint64(v), f.modBig); f.ToBig(&x).Cmp(want) != 0 {
					t.Errorf("FromUint64(%d) = %s, want %s", v, f.ToBig(&x), want)
				}
			}
			p := f.Modulus()
			for _, b := range []*big.Int{
				big.NewInt(0), big.NewInt(-1), p, new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Add(p, big.NewInt(1)),
				new(big.Int).SetBytes(ff32), new(big.Int).Lsh(big.NewInt(1), 300), new(big.Int).Neg(p),
			} {
				check("FromBig", f.FromBig(b))
			}
			for _, b := range [][]byte{nil, {0}, ff32, bytes.Repeat([]byte{0xff}, 64), p.Bytes()} {
				check("FromBytes", f.FromBytes(b))
			}
			canon := make([]byte, f.ByteLen())
			for _, b := range []*big.Int{big.NewInt(0), new(big.Int).Sub(p, big.NewInt(1)), p, new(big.Int).Lsh(big.NewInt(1), uint(8*f.ByteLen())-1)} {
				x, err := f.FromBytesCanonical(b.FillBytes(canon))
				if (err == nil) != (b.Cmp(p) < 0) {
					t.Errorf("FromBytesCanonical(%s): err = %v", b, err)
				}
				check("FromBytesCanonical", x)
			}
		})
	}
}

// TestMulConcurrentSharedField multiplies on one *Field from 8 goroutines:
// NewField writes the kernel choice once and every Mul reads it, which is
// the sharing -race has to see.
func TestMulConcurrentSharedField(t *testing.T) {
	f, err := NewField(testFr.Modulus())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	x, y := f.FromUint64(3), f.FromUint64(0xdeadbeefcafebabe)
	want := x
	for i := 0; i < n; i++ {
		f.mulGeneric(&want, &want, &y)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := x
			for i := 0; i < n; i++ {
				f.Mul(&z, &z, &y)
			}
			if z != want {
				t.Errorf("concurrent Mul chain = %x, want %x", z, want)
			}
		}()
	}
	wg.Wait()
}

// FuzzFieldMul feeds the three kernels raw limbs the fuzzer controls: 64
// bytes become two integers reduced mod p, on both BN254 fields.
func FuzzFieldMul(f *testing.F) {
	requireADX(f)
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(testFr.Modulus().FillBytes(make([]byte, 32)), testFp.Modulus().FillBytes(make([]byte, 32))...))
	kernels := []mulKernel{kernelADX, kernelUnrolled, kernelGeneric}
	fields := []*Field{testFp, testFr}
	oracles := []func(x, y *Element) Element{mulOracle(testFp), mulOracle(testFr)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 64 {
			return
		}
		for i, fld := range fields {
			var x, y Element
			bigToLimbs(new(big.Int).Mod(new(big.Int).SetBytes(data[:32]), fld.modBig), (*[Limbs]uint64)(&x))
			bigToLimbs(new(big.Int).Mod(new(big.Int).SetBytes(data[32:]), fld.modBig), (*[Limbs]uint64)(&y))
			want := oracles[i](&x, &y)
			checkKernelsOn(t, fld, kernels, &x, &y, &want, true)
		}
	})
}

// BenchmarkMulThroughput runs four independent multiplication chains per
// iteration, the shape a curve addition or an FFT butterfly pass gives the
// CPU: it measures how many multiplications overlap, where BenchmarkMul's
// single dependent chain measures one multiplication's latency.
func BenchmarkMulThroughput(b *testing.B) {
	f := testFr
	y := f.FromUint64(0x123456789abcdef0)
	z0, z1, z2, z3 := f.FromUint64(3), f.FromUint64(5), f.FromUint64(7), f.FromUint64(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mul(&z0, &z0, &y)
		f.Mul(&z1, &z1, &y)
		f.Mul(&z2, &z2, &y)
		f.Mul(&z3, &z3, &y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/mul")
}

// BenchmarkMulKernels times the three bodies of Field.Mul on the same
// dependent chain, so one run compares them.
func BenchmarkMulKernels(b *testing.B) {
	f := testFr
	for _, k := range []mulKernel{kernelADX, kernelUnrolled, kernelGeneric} {
		b.Run(k.name, func(b *testing.B) {
			if k.name == kernelADX.name {
				requireADX(b)
			}
			y := f.FromUint64(0x123456789abcdef0)
			z := f.FromUint64(0xdeadbeefcafebabe)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.mul(f, &z, &z, &y)
			}
		})
	}
}
