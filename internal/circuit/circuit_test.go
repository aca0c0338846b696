package circuit

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

var testSRSOnce = sync.OnceValue(func() *kzg.SRS {
	tau := fr.NewElement(0x7e57)
	srs, err := kzg.NewSRSFromSecret(3<<12+6, &tau)
	if err != nil {
		panic(err)
	}
	return srs
})

// checkSatisfied compiles the builder and verifies the witness against the
// constraint system directly.
func checkSatisfied(t *testing.T, b *Builder) {
	t.Helper()
	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatalf("constraints not satisfied: %v", err)
	}
}

func TestArithmeticGates(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr.NewElement(6))
	y := b.Secret(fr.NewElement(7))
	sum := b.Add(x, y)
	if v := b.Value(sum); v.String() != "13" {
		t.Fatalf("add value = %s", v.String())
	}
	prod := b.Mul(x, y)
	if v := b.Value(prod); v.String() != "42" {
		t.Fatalf("mul value = %s", v.String())
	}
	diff := b.Sub(prod, sum)
	if v := b.Value(diff); v.String() != "29" {
		t.Fatalf("sub value = %s", v.String())
	}
	sq := b.Square(x)
	if v := b.Value(sq); v.String() != "36" {
		t.Fatalf("square value = %s", v.String())
	}
	n := b.Neg(x)
	back := b.Neg(n)
	if v1, v2 := b.Value(back), b.Value(x); !v1.Equal(&v2) {
		t.Fatal("double negation")
	}
	c := b.AddConst(x, fr.NewElement(100))
	if v := b.Value(c); v.String() != "106" {
		t.Fatalf("addconst value = %s", v.String())
	}
	m := b.MulConst(y, fr.NewElement(3))
	if v := b.Value(m); v.String() != "21" {
		t.Fatalf("mulconst value = %s", v.String())
	}
	lc := b.Lc2(x, fr.NewElement(10), y, fr.NewElement(100))
	if v := b.Value(lc); v.String() != "760" {
		t.Fatalf("lc2 value = %s", v.String())
	}
	checkSatisfied(t, b)
}

func TestInverseAndDiv(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr.NewElement(42))
	inv := b.Inverse(x)
	prod := b.Mul(x, inv)
	one := b.Value(prod)
	if !one.IsOne() {
		t.Fatal("x * x^-1 != 1")
	}
	y := b.Secret(fr.NewElement(6))
	q := b.Mul(x, b.Inverse(y))
	if v := b.Value(q); v.String() != "7" {
		t.Fatalf("x * y^-1 = %s", v.String())
	}
	checkSatisfied(t, b)
}

func TestConstantsDeduplicated(t *testing.T) {
	b := NewBuilder()
	c1 := b.Constant(fr.NewElement(5))
	c2 := b.Constant(fr.NewElement(5))
	if c1 != c2 {
		t.Fatal("identical constants not shared")
	}
	before := b.NbGates()
	b.Constant(fr.NewElement(5))
	if b.NbGates() != before {
		t.Fatal("duplicate constant added a gate")
	}
	checkSatisfied(t, b)
}

func TestBooleanGadgets(t *testing.T) {
	cases := []struct{ x, y uint64 }{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for _, tc := range cases {
		b := NewBuilder()
		x := b.Secret(fr.NewElement(tc.x))
		y := b.Secret(fr.NewElement(tc.y))
		b.AssertBoolean(x)
		b.AssertBoolean(y)
		and := b.Value(b.And(x, y))
		or := b.Value(b.Or(x, y))
		xor := b.Value(b.Xor(x, y))
		not := b.Value(b.Not(x))
		if got, want := and.String(), fr.NewElement(tc.x&tc.y).String(); got != want {
			t.Fatalf("and(%d,%d)=%s", tc.x, tc.y, got)
		}
		if got, want := or.String(), fr.NewElement(tc.x|tc.y).String(); got != want {
			t.Fatalf("or(%d,%d)=%s", tc.x, tc.y, got)
		}
		if got, want := xor.String(), fr.NewElement(tc.x^tc.y).String(); got != want {
			t.Fatalf("xor(%d,%d)=%s", tc.x, tc.y, got)
		}
		if got, want := not.String(), fr.NewElement(1-tc.x).String(); got != want {
			t.Fatalf("not(%d)=%s", tc.x, got)
		}
		checkSatisfied(t, b)
	}
}

func TestIsZeroIsEqual(t *testing.T) {
	b := NewBuilder()
	zero := b.Secret(fr.Zero())
	nz := b.Secret(fr.NewElement(99))
	if v := b.Value(b.IsZero(zero)); !v.IsOne() {
		t.Fatal("IsZero(0) != 1")
	}
	if v := b.Value(b.IsZero(nz)); !v.IsZero() {
		t.Fatal("IsZero(99) != 0")
	}
	a := b.Secret(fr.NewElement(7))
	c := b.Secret(fr.NewElement(7))
	d := b.Secret(fr.NewElement(8))
	if v := b.Value(b.IsEqual(a, c)); !v.IsOne() {
		t.Fatal("IsEqual(7,7) != 1")
	}
	if v := b.Value(b.IsEqual(a, d)); !v.IsZero() {
		t.Fatal("IsEqual(7,8) != 0")
	}
	checkSatisfied(t, b)
}

func TestSelect(t *testing.T) {
	b := NewBuilder()
	a := b.Secret(fr.NewElement(10))
	c := b.Secret(fr.NewElement(20))
	one := b.Secret(fr.One())
	zero := b.Secret(fr.Zero())
	b.AssertBoolean(one)
	b.AssertBoolean(zero)
	if v := b.Value(b.Select(one, a, c)); v.String() != "10" {
		t.Fatal("select(1, 10, 20) != 10")
	}
	if v := b.Value(b.Select(zero, a, c)); v.String() != "20" {
		t.Fatal("select(0, 10, 20) != 20")
	}
	checkSatisfied(t, b)
}

func TestToBitsFromBits(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr.NewElement(0b1011_0110))
	bits := b.ToBits(x, 10)
	wantBits := []uint64{0, 1, 1, 0, 1, 1, 0, 1, 0, 0}
	for i, bit := range bits {
		v := b.Value(bit)
		if v.String() != fr.NewElement(wantBits[i]).String() {
			t.Fatalf("bit %d = %s, want %d", i, v.String(), wantBits[i])
		}
	}
	back := b.FromBits(bits)
	vb, vx := b.Value(back), b.Value(x)
	if !vb.Equal(&vx) {
		t.Fatal("FromBits(ToBits(x)) != x")
	}
	checkSatisfied(t, b)
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		x, y   uint64
		lt, le uint64
	}{
		{3, 5, 1, 1}, {5, 3, 0, 0}, {4, 4, 0, 1}, {0, 0, 0, 1}, {0, 255, 1, 1},
	}
	for _, tc := range cases {
		b := NewBuilder()
		x := b.Secret(fr.NewElement(tc.x))
		y := b.Secret(fr.NewElement(tc.y))
		lt := b.Value(b.IsLess(x, y, 8))
		le := b.Value(b.IsLessOrEqual(x, y, 8))
		if lt.String() != fr.NewElement(tc.lt).String() {
			t.Fatalf("IsLess(%d,%d) = %s", tc.x, tc.y, lt.String())
		}
		if le.String() != fr.NewElement(tc.le).String() {
			t.Fatalf("IsLessOrEqual(%d,%d) = %s", tc.x, tc.y, le.String())
		}
		checkSatisfied(t, b)
	}
}

func TestAssertLessCatchesViolation(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr.NewElement(9))
	y := b.Secret(fr.NewElement(5))
	b.AssertLess(x, y, 8) // false: witness must not satisfy
	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(witness); err == nil {
		t.Fatal("9 < 5 accepted")
	}
}

func TestFixedPoint(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(FixedFromFloat(2.5))
	y := b.Secret(FixedFromFloat(-1.5))
	prod := b.FixedMul(x, y)
	got := FixedToFloat(b.Value(prod))
	if got < -3.7501 || got > -3.7499 {
		t.Fatalf("2.5 * -1.5 = %v (fixed point)", got)
	}
	pos := b.FixedMul(x, x)
	if got := FixedToFloat(b.Value(pos)); got < 6.2499 || got > 6.2501 {
		t.Fatalf("2.5^2 = %v", got)
	}
	checkSatisfied(t, b)
}

func TestReLU(t *testing.T) {
	b := NewBuilder()
	pos := b.Secret(FixedFromFloat(3.25))
	negV := b.Secret(FixedFromFloat(-2.0))
	rp := b.ReLU(pos, 40)
	rn := b.ReLU(negV, 40)
	if got := FixedToFloat(b.Value(rp)); got != 3.25 {
		t.Fatalf("relu(3.25) = %v", got)
	}
	if got := FixedToFloat(b.Value(rn)); got != 0 {
		t.Fatalf("relu(-2) = %v", got)
	}
	checkSatisfied(t, b)
}

func TestAbsDiffLessOrEqual(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(FixedFromFloat(1.0))
	y := b.Secret(FixedFromFloat(1.001))
	b.AbsDiffLessOrEqual(x, y, FixedFromFloat(0.01), 40)
	b.AbsDiffLessOrEqual(y, x, FixedFromFloat(0.01), 40)
	checkSatisfied(t, b)

	// Violation: |1.0 - 2.0| > 0.01.
	b2 := NewBuilder()
	a := b2.Secret(FixedFromFloat(1.0))
	c := b2.Secret(FixedFromFloat(2.0))
	b2.AbsDiffLessOrEqual(a, c, FixedFromFloat(0.01), 40)
	cs, witness, err := b2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(witness); err == nil {
		t.Fatal("divergent values accepted")
	}
}

// TestEndToEndSNARK compiles a gadget-rich circuit and runs the full Plonk
// prove/verify cycle on it.
func TestEndToEndSNARK(t *testing.T) {
	b := NewBuilder()
	// Statement: public = x² + 3x + 7 for secret x, and x < 1000.
	x := b.Secret(fr.NewElement(123))
	sq := b.Square(x)
	three := b.MulConst(x, fr.NewElement(3))
	s := b.Add(sq, three)
	s = b.AddConst(s, fr.NewElement(7))
	pub := b.Public(b.Value(s))
	b.AssertEqual(pub, s)
	b.AssertRange(x, 10)

	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := plonk.Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonk.Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonk.Verify(vk, proof, b.PublicValues()); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	// 123² + 369 + 7 = 15129 + 376 = 15505.
	want := fr.NewElement(15505)
	if got := b.PublicValues()[0]; !got.Equal(&want) {
		t.Fatalf("public value %s, want 15505", got.String())
	}
	// Wrong public input must fail.
	if err := plonk.Verify(vk, proof, []fr.Element{fr.NewElement(15506)}); err == nil {
		t.Fatal("wrong public accepted")
	}
}

func TestCompileEmpty(t *testing.T) {
	b := NewBuilder()
	if _, _, err := b.Compile(); err == nil {
		t.Fatal("empty circuit compiled")
	}
}

func TestQuickSelectMatchesCond(t *testing.T) {
	prop := func(cond bool, a, c uint64) bool {
		b := NewBuilder()
		cv := uint64(0)
		if cond {
			cv = 1
		}
		cb := b.Secret(fr.NewElement(cv))
		av := b.Secret(fr.NewElement(a))
		cc := b.Secret(fr.NewElement(c))
		out := b.Value(b.Select(cb, av, cc))
		want := fr.NewElement(c)
		if cond {
			want = fr.NewElement(a)
		}
		return out.Equal(&want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickToBitsRoundTrip(t *testing.T) {
	prop := func(v uint32) bool {
		b := NewBuilder()
		x := b.Secret(fr.NewElement(uint64(v)))
		bits := b.ToBits(x, 32)
		back := b.Value(b.FromBits(bits))
		orig := b.Value(x)
		cs, w, err := b.Compile()
		if err != nil {
			return false
		}
		return back.Equal(&orig) && cs.IsSatisfied(w) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedDivPos(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(FixedFromFloat(7.5))
	y := b.Secret(FixedFromFloat(2.5))
	q := b.FixedDivPos(x, y, 40)
	if got := FixedToFloat(b.Value(q)); got < 2.999 || got > 3.001 {
		t.Fatalf("7.5 / 2.5 = %v", got)
	}
	checkSatisfied(t, b)

	// Division result must satisfy the remainder bound: a forged quotient
	// fails the constraints.
	b2 := NewBuilder()
	x2 := b2.Secret(FixedFromFloat(1.0))
	y2 := b2.Secret(FixedFromFloat(3.0))
	q2 := b2.FixedDivPos(x2, y2, 40)
	if got := FixedToFloat(b2.Value(q2)); got < 0.33 || got > 0.34 {
		t.Fatalf("1/3 = %v", got)
	}
	checkSatisfied(t, b2)
}

// TestRandomCircuitsProve builds randomized (seeded) circuits from the
// gadget vocabulary, checks satisfiability, and runs the full SNARK cycle —
// a fuzz-style property test over the whole front-end/back-end pipeline.
func TestRandomCircuitsProve(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz prove skipped in -short mode")
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(itoa(int(seed)), func(t *testing.T) {
			b := NewBuilder()
			state := uint64(seed)
			next := func(n uint64) uint64 {
				state = state*6364136223846793005 + 1442695040888963407
				return (state >> 33) % n
			}
			vars := []Variable{
				b.Secret(fr.NewElement(next(1000) + 1)),
				b.Secret(fr.NewElement(next(1000) + 1)),
			}
			for i := 0; i < 40; i++ {
				x := vars[next(uint64(len(vars)))]
				y := vars[next(uint64(len(vars)))]
				var v Variable
				switch next(8) {
				case 0:
					v = b.Add(x, y)
				case 1:
					v = b.Sub(x, y)
				case 2:
					v = b.Mul(x, y)
				case 3:
					v = b.Square(x)
				case 4:
					v = b.AddConst(x, fr.NewElement(next(50)))
				case 5:
					v = b.MulConst(x, fr.NewElement(next(50)+1))
				case 6:
					v = b.IsZero(x)
				default:
					v = b.Select(b.IsEqual(x, y), x, y)
				}
				vars = append(vars, v)
			}
			out := vars[len(vars)-1]
			pub := b.Public(b.Value(out))
			b.AssertEqual(pub, out)

			cs, witness, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.IsSatisfied(witness); err != nil {
				t.Fatalf("random circuit unsatisfied: %v", err)
			}
			pk, vk, err := plonk.Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			proof, err := plonk.Prove(pk, witness)
			if err != nil {
				t.Fatal(err)
			}
			if err := plonk.Verify(vk, proof, b.PublicValues()); err != nil {
				t.Fatalf("random circuit proof rejected: %v", err)
			}
			// And the wrong public value must fail.
			wrong := b.PublicValues()
			wrong[0].Add(&wrong[0], &frOne)
			if err := plonk.Verify(vk, proof, wrong); err == nil {
				t.Fatal("wrong public accepted on random circuit")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestCompileSizesOnce pins that Compile sizes the constraint system from
// the builder's final counts: a build of hundreds of gates compiles in four
// allocations (the variable remap, the system, its gate slice and the
// witness), so no gate append grows a slice.
func TestCompileSizesOnce(t *testing.T) {
	b := NewBuilder()
	x := b.Public(fr.NewElement(3))
	acc := b.Secret(fr.NewElement(5))
	for i := 0; i < 300; i++ {
		acc = b.Mul(acc, x)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, _, err := b.Compile(); err != nil {
			t.Fatal(err)
		}
	}); a != 4 {
		t.Fatalf("Compile of %d gates allocates %v times, want 4", len(b.gates), a)
	}
	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}
}
