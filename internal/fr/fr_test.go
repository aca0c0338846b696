package fr

import (
	"encoding/binary"
	"math/big"
	"testing"
	"testing/quick"
)

func TestBasicIdentities(t *testing.T) {
	one, zero := One(), Zero()
	var sum Element
	sum.Add(&one, &zero)
	if !sum.IsOne() {
		t.Fatal("1 + 0 != 1")
	}
	var prod Element
	prod.Mul(&one, &one)
	if !prod.IsOne() {
		t.Fatal("1 * 1 != 1")
	}
	if !zero.IsZero() || one.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

func TestNewFromInt64(t *testing.T) {
	cases := []struct {
		in   int64
		want *big.Int
	}{
		{0, big.NewInt(0)},
		{42, big.NewInt(42)},
		{-1, new(big.Int).Sub(Modulus(), big.NewInt(1))},
		{-100, new(big.Int).Sub(Modulus(), big.NewInt(100))},
	}
	for _, tc := range cases {
		e := NewFromInt64(tc.in)
		if got := e.BigInt(); got.Cmp(tc.want) != 0 {
			t.Errorf("NewFromInt64(%d) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	minusOne := NewFromInt64(-1)
	edge := []Element{Zero(), One(), minusOne, NewElement(1 << 63)}
	for i := 0; i < 50+len(edge); i++ {
		e := MustRandom()
		if i < len(edge) {
			e = edge[i]
		}
		b := e.Bytes()
		// The big.Int encoder Bytes used to go through is its oracle.
		var want [Bytes]byte
		e.BigInt().FillBytes(want[:])
		if b != want {
			t.Fatalf("Bytes of %s differs from the big.Int encoding", e)
		}
		for j, l := range e.Limbs() {
			if w := binary.BigEndian.Uint64(want[24-8*j:]); l != w {
				t.Fatalf("Limbs of %s: limb %d = %#x, want %#x", e, j, l, w)
			}
		}
		back, err := FromBytesCanonical(b[:])
		if err != nil {
			t.Fatalf("FromBytesCanonical: %v", err)
		}
		if !back.Equal(&e) {
			t.Fatal("round trip mismatch")
		}
	}
	var modBytes [Bytes]byte
	Modulus().FillBytes(modBytes[:])
	if _, err := FromBytesCanonical(modBytes[:]); err == nil {
		t.Fatal("accepted non-canonical bytes")
	}
	e := MustRandom()
	if n := testing.AllocsPerRun(100, func() { _ = e.Bytes(); _ = e.Limbs() }); n != 0 {
		t.Fatalf("Bytes+Limbs allocate %v times per call, want 0", n)
	}
}

func TestRootOfUnity(t *testing.T) {
	for _, logN := range []int{0, 1, 4, 10, TwoAdicity} {
		w, err := RootOfUnity(logN)
		if err != nil {
			t.Fatalf("RootOfUnity(%d): %v", logN, err)
		}
		// w^(2^logN) == 1 and w^(2^(logN-1)) == -1 (primitivity).
		var x Element
		x.Set(&w)
		for i := 0; i < logN; i++ {
			x.Square(&x)
		}
		if !x.IsOne() {
			t.Fatalf("w^(2^%d) != 1", logN)
		}
		if logN > 0 {
			x.Set(&w)
			for i := 0; i < logN-1; i++ {
				x.Square(&x)
			}
			minusOne := NewFromInt64(-1)
			if !x.Equal(&minusOne) {
				t.Fatalf("root of unity for logN=%d is not primitive", logN)
			}
		}
	}
	if _, err := RootOfUnity(TwoAdicity + 1); err == nil {
		t.Fatal("RootOfUnity beyond two-adicity should fail")
	}
	if _, err := RootOfUnity(-1); err == nil {
		t.Fatal("RootOfUnity(-1) should fail")
	}
}

// TestRootOfUnity3 checks the 3·2^k roots: the cube is the 2^k root the
// power-of-two domains already use (so those keep their generator), and the
// order is exactly 3·2^k (the 2^k-th power is a primitive cube root of one).
func TestRootOfUnity3(t *testing.T) {
	one := One()
	for _, logN := range []int{0, 1, 4, 10, TwoAdicity} {
		w3, err := RootOfUnity3(logN)
		if err != nil {
			t.Fatalf("RootOfUnity3(%d): %v", logN, err)
		}
		w, err := RootOfUnity(logN)
		if err != nil {
			t.Fatal(err)
		}
		var cube Element
		cube.Square(&w3)
		cube.Mul(&cube, &w3)
		if !cube.Equal(&w) {
			t.Fatalf("RootOfUnity3(%d)³ != RootOfUnity(%d)", logN, logN)
		}
		var c Element
		c.ExpUint64(&w3, 1<<uint(logN))
		if c.Equal(&one) {
			t.Fatalf("RootOfUnity3(%d) has order dividing 2^%d", logN, logN)
		}
		var c3 Element
		c3.Square(&c)
		c3.Mul(&c3, &c)
		if !c3.Equal(&one) {
			t.Fatalf("RootOfUnity3(%d)^(3·2^%d) != 1", logN, logN)
		}
	}
	if _, err := RootOfUnity3(TwoAdicity + 1); err == nil {
		t.Fatal("RootOfUnity3 beyond two-adicity should fail")
	}
}

func TestBatchInvert(t *testing.T) {
	xs := make([]Element, 33)
	want := make([]Element, 33)
	for i := range xs {
		if i%5 == 2 {
			xs[i] = Zero()
		} else {
			xs[i] = NewElement(uint64(3*i + 7))
		}
		want[i].Inverse(&xs[i])
	}
	BatchInvert(xs)
	for i := range xs {
		if !xs[i].Equal(&want[i]) {
			t.Fatalf("batch invert mismatch at %d", i)
		}
	}
}

func TestQuickAddMulAgainstBig(t *testing.T) {
	mod := Modulus()
	prop := func(a, b uint64) bool {
		x, y := NewElement(a), NewElement(b)
		var s, p Element
		s.Add(&x, &y)
		p.Mul(&x, &y)
		wantS := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		wantS.Mod(wantS, mod)
		wantP := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		wantP.Mod(wantP, mod)
		return s.BigInt().Cmp(wantS) == 0 && p.BigInt().Cmp(wantP) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverse(t *testing.T) {
	prop := func(a uint64) bool {
		if a == 0 {
			return true
		}
		x := NewElement(a)
		var inv, prod Element
		inv.Inverse(&x)
		prod.Mul(&x, &inv)
		return prod.IsOne()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	e := NewElement(12345)
	if got := e.String(); got != "12345" {
		t.Fatalf("String() = %q, want 12345", got)
	}
}

func TestUint64(t *testing.T) {
	e := NewElement(777)
	v, ok := e.Uint64()
	if !ok || v != 777 {
		t.Fatalf("Uint64() = %d,%v", v, ok)
	}
	big := NewFromInt64(-1)
	if _, ok := big.Uint64(); ok {
		t.Fatal("r-1 should not fit in uint64")
	}
}
