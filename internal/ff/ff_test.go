package ff

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// The two fields exercised throughout the repo: BN254 base and scalar fields.
var (
	testFp = MustNewField("21888242871839275222246405745257275088696311157297823662689037894645226208583")
	testFr = MustNewField("21888242871839275222246405745257275088548364400416034343698204186575808495617")
	// A tiny field to exercise edge cases exhaustively.
	testF97 = MustNewField("97")
)

func testFields() map[string]*Field {
	return map[string]*Field{"fp": testFp, "fr": testFr, "f97": testF97}
}

func randomBig(t *testing.T, f *Field) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, f.Modulus())
	if err != nil {
		t.Fatalf("rand.Int: %v", err)
	}
	return v
}

func TestNewFieldRejectsBadModuli(t *testing.T) {
	cases := []struct {
		name string
		mod  *big.Int
	}{
		{"zero", big.NewInt(0)},
		{"negative", big.NewInt(-7)},
		{"even", big.NewInt(10)},
		{"too large", new(big.Int).Lsh(big.NewInt(1), 257)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewField(tc.mod); err == nil {
				t.Fatalf("NewField(%s) succeeded, want error", tc.mod)
			}
		})
	}
}

func TestRoundTripBig(t *testing.T) {
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				v := randomBig(t, f)
				e := f.FromBig(v)
				got := f.ToBig(&e)
				if got.Cmp(v) != 0 {
					t.Fatalf("round trip: got %s want %s", got, v)
				}
			}
		})
	}
}

func TestAddSubMulAgainstBig(t *testing.T) {
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			mod := f.Modulus()
			for i := 0; i < 300; i++ {
				a, b := randomBig(t, f), randomBig(t, f)
				ea, eb := f.FromBig(a), f.FromBig(b)

				var sum, diff, prod Element
				f.Add(&sum, &ea, &eb)
				f.Sub(&diff, &ea, &eb)
				f.Mul(&prod, &ea, &eb)

				wantSum := new(big.Int).Add(a, b)
				wantSum.Mod(wantSum, mod)
				wantDiff := new(big.Int).Sub(a, b)
				wantDiff.Mod(wantDiff, mod)
				wantProd := new(big.Int).Mul(a, b)
				wantProd.Mod(wantProd, mod)

				if got := f.ToBig(&sum); got.Cmp(wantSum) != 0 {
					t.Fatalf("add: got %s want %s", got, wantSum)
				}
				if got := f.ToBig(&diff); got.Cmp(wantDiff) != 0 {
					t.Fatalf("sub: got %s want %s", got, wantDiff)
				}
				if got := f.ToBig(&prod); got.Cmp(wantProd) != 0 {
					t.Fatalf("mul: got %s want %s", got, wantProd)
				}
			}
		})
	}
}

func TestEdgeValues(t *testing.T) {
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			mod := f.Modulus()
			pm1 := new(big.Int).Sub(mod, big.NewInt(1))
			edge := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), pm1}
			for _, a := range edge {
				for _, b := range edge {
					ea, eb := f.FromBig(a), f.FromBig(b)
					var sum, prod Element
					f.Add(&sum, &ea, &eb)
					f.Mul(&prod, &ea, &eb)
					// Sub in place over its first operand: both borrow
					// outcomes, and x - x, on the values nearest 0 and p.
					diff := ea
					f.Sub(&diff, &diff, &eb)
					wantDiff := new(big.Int).Sub(a, b)
					wantDiff.Mod(wantDiff, mod)
					if got := f.ToBig(&diff); got.Cmp(wantDiff) != 0 {
						t.Fatalf("sub(%s,%s): got %s want %s", a, b, got, wantDiff)
					}
					wantSum := new(big.Int).Add(a, b)
					wantSum.Mod(wantSum, mod)
					wantProd := new(big.Int).Mul(a, b)
					wantProd.Mod(wantProd, mod)
					if got := f.ToBig(&sum); got.Cmp(wantSum) != 0 {
						t.Fatalf("add(%s,%s): got %s want %s", a, b, got, wantSum)
					}
					if got := f.ToBig(&prod); got.Cmp(wantProd) != 0 {
						t.Fatalf("mul(%s,%s): got %s want %s", a, b, got, wantProd)
					}
				}
			}
		})
	}
}

func TestNeg(t *testing.T) {
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			zero := Element{}
			var negZero Element
			f.Neg(&negZero, &zero)
			if !f.IsZero(&negZero) {
				t.Fatal("neg(0) != 0")
			}
			for i := 0; i < 100; i++ {
				a := randomBig(t, f)
				ea := f.FromBig(a)
				var neg, sum Element
				f.Neg(&neg, &ea)
				f.Add(&sum, &ea, &neg)
				if !f.IsZero(&sum) {
					t.Fatalf("a + (-a) != 0 for a=%s", a)
				}
			}
		})
	}
}

func TestInverse(t *testing.T) {
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			zero := Element{}
			var invZero Element
			f.Inverse(&invZero, &zero)
			if !f.IsZero(&invZero) {
				t.Fatal("inverse(0) should stay 0 by convention")
			}
			for i := 0; i < 50; i++ {
				a := randomBig(t, f)
				if a.Sign() == 0 {
					continue
				}
				ea := f.FromBig(a)
				var inv, prod Element
				f.Inverse(&inv, &ea)
				f.Mul(&prod, &ea, &inv)
				if !f.IsOne(&prod) {
					t.Fatalf("a * a^-1 != 1 for a=%s", a)
				}
			}
		})
	}
}

func TestExp(t *testing.T) {
	f := testFr
	mod := f.Modulus()
	for i := 0; i < 30; i++ {
		a := randomBig(t, f)
		e, err := rand.Int(rand.Reader, big.NewInt(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		ea := f.FromBig(a)
		var res Element
		f.Exp(&res, &ea, e)
		want := new(big.Int).Exp(a, e, mod)
		if got := f.ToBig(&res); got.Cmp(want) != 0 {
			t.Fatalf("exp: got %s want %s", got, want)
		}
	}
	// x^0 == 1, including 0^0 == 1 by the square-and-multiply convention.
	one := f.One()
	var res Element
	zero := Element{}
	f.Exp(&res, &zero, big.NewInt(0))
	if res != one {
		t.Fatal("0^0 != 1")
	}
}

func TestFermat(t *testing.T) {
	// a^(p-1) == 1 for a != 0: a strong check on Exp and Mul together.
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			pm1 := new(big.Int).Sub(f.Modulus(), big.NewInt(1))
			for i := 0; i < 20; i++ {
				a := randomBig(t, f)
				if a.Sign() == 0 {
					continue
				}
				ea := f.FromBig(a)
				var res Element
				f.Exp(&res, &ea, pm1)
				if !f.IsOne(&res) {
					t.Fatalf("a^(p-1) != 1 for a=%s", a)
				}
			}
		})
	}
}

func TestBatchInverse(t *testing.T) {
	f := testFr
	xs := make([]Element, 64)
	want := make([]Element, 64)
	for i := range xs {
		if i%7 == 3 {
			xs[i] = Element{} // sprinkle zeros
		} else {
			xs[i] = f.FromUint64(uint64(i + 1))
		}
		f.Inverse(&want[i], &xs[i])
	}
	f.BatchInverse(xs, make([]Element, len(xs)))
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("batch inverse mismatch at %d", i)
		}
	}
	f.BatchInverse(nil, nil) // must not panic
}

// bytesViaBig is the big.Int encoder Bytes used to be, kept as its oracle.
func bytesViaBig(f *Field, x *Element) []byte {
	out := make([]byte, 8*Limbs)
	f.ToBig(x).FillBytes(out)
	return out
}

func TestBytesRoundTrip(t *testing.T) {
	for name, f := range testFields() {
		pad := 8*Limbs - f.byteLen
		edge := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(f.Modulus(), big.NewInt(1))}
		for i := 0; i < 50+len(edge); i++ {
			v := randomBig(t, f)
			if i < len(edge) {
				v = edge[i]
			}
			e := f.FromBig(v)
			b := f.Bytes(&e)
			if !bytes.Equal(b[:], bytesViaBig(f, &e)) {
				t.Fatalf("%s: Bytes differs from the big.Int encoding of %s", name, v)
			}
			if r := f.Regular(&e); limbsToBig(&r).Cmp(v) != 0 {
				t.Fatalf("%s: Regular = %v, want %s", name, r, v)
			}
			back, err := f.FromBytesCanonical(b[pad:])
			if err != nil {
				t.Fatalf("%s: FromBytesCanonical: %v", name, err)
			}
			if back != e {
				t.Fatalf("%s: bytes round trip mismatch", name)
			}
		}
	}
	f := testFp
	// Non-canonical: the modulus itself must be rejected.
	modBytes := make([]byte, f.byteLen)
	f.Modulus().FillBytes(modBytes)
	if _, err := f.FromBytesCanonical(modBytes); err == nil {
		t.Fatal("FromBytesCanonical accepted the modulus")
	}
	if _, err := f.FromBytesCanonical([]byte{1, 2, 3}); err == nil {
		t.Fatal("FromBytesCanonical accepted wrong length")
	}
	e := f.FromUint64(7)
	if n := testing.AllocsPerRun(100, func() { _ = f.Bytes(&e) }); n != 0 {
		t.Fatalf("Bytes allocates %v times per call, want 0", n)
	}
}

// Property-based tests over the scalar field.

func frFromQuick(a uint64, b uint64, c uint64, d uint64) Element {
	v := limbsToBig(&[Limbs]uint64{a, b, c, d})
	return testFr.FromBig(v)
}

func TestQuickCommutativity(t *testing.T) {
	f := testFr
	prop := func(a1, a2, a3, a4, b1, b2, b3, b4 uint64) bool {
		x := frFromQuick(a1, a2, a3, a4)
		y := frFromQuick(b1, b2, b3, b4)
		var s1, s2, p1, p2 Element
		f.Add(&s1, &x, &y)
		f.Add(&s2, &y, &x)
		f.Mul(&p1, &x, &y)
		f.Mul(&p2, &y, &x)
		return s1 == s2 && p1 == p2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistributivity(t *testing.T) {
	f := testFr
	prop := func(a1, a2, b1, b2, c1, c2 uint64) bool {
		x := frFromQuick(a1, a2, 0, 0)
		y := frFromQuick(b1, b2, 0, 0)
		z := frFromQuick(c1, c2, 0, 0)
		// x*(y+z) == x*y + x*z
		var l, r, t1, t2 Element
		f.Add(&l, &y, &z)
		f.Mul(&l, &x, &l)
		f.Mul(&t1, &x, &y)
		f.Mul(&t2, &x, &z)
		f.Add(&r, &t1, &t2)
		return l == r
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAssociativity(t *testing.T) {
	f := testFr
	prop := func(a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, c3, c4 uint64) bool {
		x := frFromQuick(a1, a2, a3, a4)
		y := frFromQuick(b1, b2, b3, b4)
		z := frFromQuick(c1, c2, c3, c4)
		var l, r Element
		f.Mul(&l, &x, &y)
		f.Mul(&l, &l, &z)
		f.Mul(&r, &y, &z)
		f.Mul(&r, &x, &r)
		return l == r
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSquareMatchesMul(t *testing.T) {
	f := testFp
	prop := func(a1, a2, a3, a4 uint64) bool {
		x := frFromQuickField(f, a1, a2, a3, a4)
		var sq, mul Element
		f.Square(&sq, &x)
		f.Mul(&mul, &x, &x)
		return sq == mul
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func frFromQuickField(f *Field, a, b, c, d uint64) Element {
	return f.FromBig(limbsToBig(&[Limbs]uint64{a, b, c, d}))
}

// BenchmarkMul times one dependent chain, each product feeding the next: the
// latency of a multiplication. BenchmarkMulThroughput is its counterpart.
func BenchmarkMul(b *testing.B) {
	f := testFr
	z := f.FromUint64(0xdeadbeefcafebabe)
	y := f.FromUint64(0x123456789abcdef0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mul(&z, &z, &y)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := testFr
	x := f.FromUint64(0xdeadbeefcafebabe)
	y := f.FromUint64(0x123456789abcdef0)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(&z, &x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	f := testFr
	x := f.FromUint64(0xdeadbeefcafebabe)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Inverse(&z, &x)
	}
}

// TestUnrolledMatchesGeneric cross-checks the two multiplication paths on
// random inputs for every test field.
func TestUnrolledMatchesGeneric(t *testing.T) {
	for name, f := range testFields() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 500; i++ {
				a, b := randomBig(t, f), randomBig(t, f)
				ea, eb := f.FromBig(a), f.FromBig(b)
				var viaUnrolled, viaGeneric Element
				f.mulUnrolled(&viaUnrolled, &ea, &eb)
				f.mulGeneric(&viaGeneric, &ea, &eb)
				if viaUnrolled != viaGeneric {
					t.Fatalf("paths disagree for %s * %s", a, b)
				}
			}
			// Edge values.
			pm1 := new(big.Int).Sub(f.Modulus(), big.NewInt(1))
			for _, a := range []*big.Int{big.NewInt(0), big.NewInt(1), pm1} {
				for _, b := range []*big.Int{big.NewInt(0), big.NewInt(1), pm1} {
					ea, eb := f.FromBig(a), f.FromBig(b)
					var u, g Element
					f.mulUnrolled(&u, &ea, &eb)
					f.mulGeneric(&g, &ea, &eb)
					if u != g {
						t.Fatalf("paths disagree for %s * %s", a, b)
					}
				}
			}
		})
	}
}
