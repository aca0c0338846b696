package bn254

import (
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// xyzzAffine normalises p through toJacobian.
func xyzzAffine(p *g1XYZZ) G1Affine {
	var j G1Jac
	p.toJacobian(&j)
	var out G1Affine
	out.FromJacobian(&j)
	return out
}

// jacSum is the reference: the general Jacobian addition over lifted points.
func jacSum(ps ...G1Affine) G1Affine {
	var acc G1Jac
	for i := range ps {
		var j G1Jac
		j.FromAffine(&ps[i])
		acc.AddAssign(&j)
	}
	var out G1Affine
	out.FromJacobian(&acc)
	return out
}

func randomG1(t *testing.T) G1Affine {
	t.Helper()
	g := G1Generator()
	s := fr.MustRandom()
	return G1ScalarMul(&g, &s)
}

// TestXYZZAgainstJacobian checks the extended-Jacobian bucket arithmetic
// (mixed add with and without negation, general add, doubling, conversion)
// against G1Jac on random points and on every special case: infinity on
// either side, equal operands, opposite operands — with the accumulator
// both freshly lifted (ZZ = 1) and carrying a non-trivial denominator.
func TestXYZZAgainstJacobian(t *testing.T) {
	var inf G1Affine
	for round := 0; round < 20; round++ {
		a, b := randomG1(t), randomG1(t)
		var negA, negB G1Affine
		negA.Neg(&a)
		negB.Neg(&b)
		ab := jacSum(a, b) // a non-trivial denominator once accumulated

		mixed := []struct {
			name string
			ops  []G1Affine
			neg  []bool
			want G1Affine
		}{
			{"lift", []G1Affine{a}, []bool{false}, a},
			{"lift negated", []G1Affine{a}, []bool{true}, negA},
			{"add", []G1Affine{a, b}, []bool{false, false}, ab},
			{"sub", []G1Affine{a, b}, []bool{false, true}, jacSum(a, negB)},
			{"infinity operand", []G1Affine{a, inf, b, inf}, []bool{false, false, false, true}, ab},
			{"double lifted", []G1Affine{a, a}, []bool{false, false}, jacSum(a, a)},
			{"double by negated opposite", []G1Affine{a, negA}, []bool{false, true}, jacSum(a, a)},
			{"cancel lifted", []G1Affine{a, negA}, []bool{false, false}, inf},
			{"cancel by flag", []G1Affine{a, a}, []bool{false, true}, inf},
			{"double accumulated", []G1Affine{a, b, ab}, []bool{false, false, false}, jacSum(ab, ab)},
			{"cancel accumulated", []G1Affine{a, b, ab}, []bool{false, false, true}, inf},
			{"cancel then continue", []G1Affine{a, a, b, b}, []bool{false, true, false, false}, jacSum(b, b)},
		}
		for _, tc := range mixed {
			var p g1XYZZ
			for i := range tc.ops {
				p.addMixed(&tc.ops[i], tc.neg[i])
			}
			if got := xyzzAffine(&p); !got.Equal(&tc.want) {
				t.Fatalf("addMixed %s: wrong point", tc.name)
			}
			if p.isInfinity() != tc.want.IsInfinity() {
				t.Fatalf("addMixed %s: isInfinity = %v", tc.name, p.isInfinity())
			}
		}

		// General addition and doubling, on accumulators with ZZ ≠ 1.
		acc := func(ps ...G1Affine) g1XYZZ {
			var p g1XYZZ
			for i := range ps {
				p.addMixed(&ps[i], false)
			}
			return p
		}
		var zero g1XYZZ
		general := []struct {
			name string
			p, q g1XYZZ
			want G1Affine
		}{
			{"add", acc(a, b), acc(b, b, a), jacSum(a, b, b, b, a)},
			{"infinity left", zero, acc(a, b), ab},
			{"infinity right", acc(a, b), zero, ab},
			{"both infinity", zero, zero, inf},
			{"equal, different denominators", acc(a, b), acc(b, a), jacSum(ab, ab)},
			{"opposite", acc(a, b), acc(negB, negA), inf},
			{"equal lifted", acc(a), acc(a), jacSum(a, a)},
		}
		for _, tc := range general {
			p := tc.p
			p.add(&tc.q)
			if got := xyzzAffine(&p); !got.Equal(&tc.want) {
				t.Fatalf("add %s: wrong point", tc.name)
			}
		}
		for _, p := range []g1XYZZ{acc(a), acc(a, b), zero} {
			want := xyzzAffine(&p)
			want = jacSum(want, want)
			p.double()
			if got := xyzzAffine(&p); !got.Equal(&want) {
				t.Fatal("double: wrong point")
			}
		}
	}
}

// TestG1JacAddMixedEdgeCases pins the madd-2007-bl rewrite of AddMixed
// against the general addition of the lifted point it used to call.
func TestG1JacAddMixedEdgeCases(t *testing.T) {
	var inf G1Affine
	a, b := randomG1(t), randomG1(t)
	var negA G1Affine
	negA.Neg(&a)
	ab := jacSum(a, b)
	var negAB G1Affine
	negAB.Neg(&ab)
	for _, tc := range []struct {
		name string
		ops  []G1Affine
	}{
		{"generic", []G1Affine{a, b, a}},
		{"infinity operands", []G1Affine{inf, a, inf, b}},
		{"double from Z = 1", []G1Affine{a, a}},
		{"double from Z ≠ 1", []G1Affine{a, b, ab}},
		{"cancel from Z = 1", []G1Affine{a, negA}},
		{"cancel from Z ≠ 1, then continue", []G1Affine{a, b, negAB, b}},
	} {
		var p G1Jac
		for i := range tc.ops {
			p.AddMixed(&tc.ops[i])
		}
		var got G1Affine
		got.FromJacobian(&p)
		if want := jacSum(tc.ops...); !got.Equal(&want) {
			t.Fatalf("AddMixed %s: differs from the general addition", tc.name)
		}
	}
}
