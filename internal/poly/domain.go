package poly

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// parallelFFTThreshold is the domain size below which transforms run fully
// serially: goroutine startup and per-stage synchronisation cost more than
// the butterflies they would save on small domains.
const parallelFFTThreshold = 1 << 11

// Domain is a multiplicative subgroup of Fr* of order 2^k or 3·2^k, used as
// an FFT evaluation domain. All Plonk polynomials live on such a domain. The
// second family exists because 3 divides r-1: a circuit of 700 rows pays for
// 768, not 1024, and a degree-5n quotient for a 6n coset, not 8n.
//
// Twiddle, element and coset-power tables are built lazily on first use and
// cached for the lifetime of the domain, so repeated transforms (the Plonk
// prover runs 20+ FFTs per proof over the same two domains) stop paying the
// O(N) chained multiplications per call.
type Domain struct {
	// N is the domain size, 2^Log or 3·2^Log.
	N uint64
	// Log is the exponent of the power of two in N.
	Log int
	// Gen is a primitive N-th root of unity ω.
	Gen fr.Element
	// GenInv is ω⁻¹.
	GenInv fr.Element
	// NInv is N⁻¹ in the field, used by the inverse FFT.
	NInv fr.Element
	// CosetShift is the multiplicative generator g used for coset FFTs
	// (evaluations over g·H instead of H).
	CosetShift fr.Element
	// CosetShiftInv is g⁻¹.
	CosetShiftInv fr.Element

	// Lazily-built caches. The slices are shared across calls; callers
	// must treat them as read-only.
	twiddleOnce sync.Once
	twiddleFwd  []fr.Element // ω^j for j < N/2 (j < 2N/3 when 3 | N)
	twiddleInv  []fr.Element // ω⁻ʲ, same range

	elemsOnce sync.Once
	elems     []fr.Element // ω^i for i < N
	elemsInv  []fr.Element // ω⁻ⁱ for i < N

	cosetOnce   sync.Once
	cosetPow    []fr.Element // g^i for i < N
	cosetPowInv []fr.Element // g⁻ⁱ for i < N

	// scratch holds N-element buffers (*[]fr.Element) for the 3·2^k
	// transform, which is not in place; a warm transform allocates nothing.
	scratch sync.Pool
}

// MaxDomainSize is the largest supported domain, 2^28. The 3·2^k family is
// held to the same bound (k ≤ 26) although the field has larger subgroups,
// so "does a domain of size ≥ n exist" stays one comparison.
const MaxDomainSize = uint64(1) << fr.TwoAdicity

// NewDomain returns the smallest supported domain of size ≥ n: the smaller
// of the next 2^k and the next 3·2^k. It errors when n exceeds 2^28 (the
// two-adicity of the scalar field).
func NewDomain(n uint64) (*Domain, error) {
	if n == 0 {
		return nil, fmt.Errorf("poly: domain size must be positive")
	}
	if n > MaxDomainSize {
		return nil, fmt.Errorf("poly: domain of size %d exceeds 2^%d", n, fr.TwoAdicity)
	}
	logN := bits.Len64(n - 1) // 2^logN is the next power of two
	d := &Domain{N: uint64(1) << logN, Log: logN}
	var err error
	if logN >= 2 && uint64(3)<<(logN-2) >= n {
		d.N, d.Log = uint64(3)<<(logN-2), logN-2
		d.Gen, err = fr.RootOfUnity3(d.Log)
	} else {
		d.Gen, err = fr.RootOfUnity(d.Log)
	}
	if err != nil {
		return nil, fmt.Errorf("poly: domain of size %d: %w", n, err)
	}
	d.GenInv.Inverse(&d.Gen)
	nEl := fr.NewElement(d.N)
	d.NInv.Inverse(&nEl)
	d.CosetShift = fr.NewElement(fr.MultiplicativeGenerator)
	d.CosetShiftInv.Inverse(&d.CosetShift)
	return d, nil
}

// radix3 reports whether N = 3·2^Log.
func (d *Domain) radix3() bool { return d.N != uint64(1)<<d.Log }

// Element returns ω^i.
func (d *Domain) Element(i uint64) fr.Element {
	var out fr.Element
	out.SetOne()
	w := d.Gen
	i %= d.N
	for ; i > 0; i >>= 1 {
		if i&1 == 1 {
			out.Mul(&out, &w)
		}
		w.Square(&w)
	}
	return out
}

// buildElements populates the cached ω-power tables.
func (d *Domain) buildElements() {
	d.elemsOnce.Do(func() {
		d.elems = fr.Powers(&d.Gen, int(d.N))
		d.elemsInv = fr.Powers(&d.GenInv, int(d.N))
	})
}

// Elements returns all N domain elements ω^0 … ω^(N-1) in order. The slice
// is cached on the domain and shared across calls: callers must not modify
// it.
func (d *Domain) Elements() []fr.Element {
	d.buildElements()
	return d.elems
}

// twiddles returns the cached twiddle tables (ω^j and ω⁻ʲ for j < N/2); the
// butterfly at stage s, index j reads entry j·(N>>s). A 3·2^k domain keeps
// j < 2N/3: its radix-3 pass also reads ω^j and ω^2j for j < N/3, and the
// cube root of one ω^(N/3).
func (d *Domain) twiddles() (fwd, inv []fr.Element) {
	d.twiddleOnce.Do(func() {
		size := int(d.N / 2)
		if d.radix3() {
			size = int(d.N / 3 * 2)
		}
		d.twiddleFwd = fr.Powers(&d.Gen, size)
		d.twiddleInv = fr.Powers(&d.GenInv, size)
	})
	return d.twiddleFwd, d.twiddleInv
}

// cosetPowers returns the cached tables of coset-shift powers g^i and g⁻ⁱ
// for i < N.
func (d *Domain) cosetPowers() (fwd, inv []fr.Element) {
	d.cosetOnce.Do(func() {
		d.cosetPow = fr.Powers(&d.CosetShift, int(d.N))
		d.cosetPowInv = fr.Powers(&d.CosetShiftInv, int(d.N))
	})
	return d.cosetPow, d.cosetPowInv
}

// VanishingEval returns Z_H(x) = x^N - 1.
func (d *Domain) VanishingEval(x *fr.Element) fr.Element {
	var xn fr.Element
	xn.ExpUint64(x, d.N)
	one := fr.One()
	xn.Sub(&xn, &one)
	return xn
}

// LagrangeEval returns L_i(x) = ω^i (x^N - 1) / (N (x - ω^i)), the i-th
// Lagrange basis polynomial of the domain evaluated at a point x ∉ H.
func (d *Domain) LagrangeEval(i uint64, x *fr.Element) fr.Element {
	zh := d.VanishingEval(x)
	wi := d.Element(i)
	var denom fr.Element
	denom.Sub(x, &wi)
	nEl := fr.NewElement(d.N)
	denom.Mul(&denom, &nEl)
	denom.Inverse(&denom)
	var out fr.Element
	out.Mul(&zh, &wi)
	out.Mul(&out, &denom)
	return out
}

// checkLen validates that a transform input matches the domain size. The
// length is caller-controlled (it reaches the prover from circuit sizes),
// so a mismatch is reported as an error rather than a panic.
func (d *Domain) checkLen(a []fr.Element) error {
	if uint64(len(a)) != d.N {
		return fmt.Errorf("poly: fft input length %d != domain size %d", len(a), d.N)
	}
	return nil
}

// FFT transforms coefficients to evaluations over the domain, in place.
// a must have length N.
func (d *Domain) FFT(a []fr.Element) error {
	if err := d.checkLen(a); err != nil {
		return err
	}
	fwd, _ := d.twiddles()
	d.fft(a, fwd, parallel.Workers())
	return nil
}

// IFFT transforms evaluations over the domain back to coefficients,
// in place. a must have length N.
func (d *Domain) IFFT(a []fr.Element) error {
	if err := d.checkLen(a); err != nil {
		return err
	}
	_, inv := d.twiddles()
	d.fft(a, inv, parallel.Workers())
	mulScalarInPlace(a, &d.NInv)
	return nil
}

// FFTCoset evaluates the polynomial over the coset g·H, in place.
func (d *Domain) FFTCoset(a []fr.Element) error {
	if err := d.checkLen(a); err != nil {
		return err
	}
	fwd, _ := d.cosetPowers()
	mulVecInPlace(a, fwd)
	return d.FFT(a)
}

// IFFTCoset interpolates evaluations over the coset g·H back to
// coefficients, in place.
func (d *Domain) IFFTCoset(a []fr.Element) error {
	if err := d.IFFT(a); err != nil {
		return err
	}
	_, inv := d.cosetPowers()
	mulVecInPlace(a, inv)
	return nil
}

// mulScalarInPlace sets a[i] *= c for all i, splitting large inputs across
// workers.
func mulScalarInPlace(a []fr.Element, c *fr.Element) {
	if len(a) < parallelFFTThreshold {
		for i := range a {
			a[i].Mul(&a[i], c)
		}
		return
	}
	parallel.Execute(len(a), func(start, end int) {
		for i := start; i < end; i++ {
			a[i].Mul(&a[i], c)
		}
	})
}

// mulVecInPlace sets a[i] *= b[i] for all i, splitting large inputs across
// workers.
func mulVecInPlace(a, b []fr.Element) {
	if len(a) < parallelFFTThreshold {
		for i := range a {
			a[i].Mul(&a[i], &b[i])
		}
		return
	}
	parallel.Execute(len(a), func(start, end int) {
		for i := start; i < end; i++ {
			a[i].Mul(&a[i], &b[i])
		}
	})
}

// fft is an iterative radix-2 Cooley–Tukey transform with bit-reversal
// reordering, in place when N is a power of two. tw is the twiddle table for
// the transform direction (tw[j] = root^j, see twiddles).
//
// N = 3·m with m = 2^Log is one decimation-in-time step of radix 3 around
// the same kernel: the three stride-3 subsequences are gathered (bit-reversed)
// into the three thirds of a pooled buffer, the radix-2 stages below run over
// the whole buffer — a stage's blocks never straddle a third, and root^(N>>s)
// is the stage root of a length-m transform — and combine3 writes the result
// back into a.
//
// Parallelisation: in early stages the row is made of many independent
// blocks, which are split across workers block-wise; in the final stages
// (few blocks, long butterfly runs) the butterfly index range inside each
// block is split instead. Every butterfly writes the same two slots it
// reads, every radix-3 triple the three slots no other triple touches, and
// each output element is produced by the same multiply/add sequence as the
// serial transform, so the result is bit-identical for any worker count.
//
// The public entry points (FFT, IFFT, …) have already validated
// len(a) == d.N; fft assumes it.
func (d *Domain) fft(a []fr.Element, tw []fr.Element, workers int) {
	n := uint64(len(a))
	if n == 1 {
		return
	}
	serial := workers <= 1 || n < parallelFFTThreshold
	buf := a // what the radix-2 stages work on
	if d.radix3() {
		p, _ := d.scratch.Get().(*[]fr.Element)
		if p == nil {
			b := make([]fr.Element, n)
			p = &b
		}
		defer d.scratch.Put(p)
		buf = *p
		if serial {
			gather3(buf, a, d.Log, 0, n/3)
		} else {
			parallel.Execute(int(n/3), func(start, end int) {
				gather3(buf, a, d.Log, uint64(start), uint64(end))
			})
		}
	} else {
		bitReversePermute(a, d.Log, serial)
	}
	for s := 1; s <= d.Log; s++ {
		m := uint64(1) << s
		half := m >> 1
		stride := n >> s
		if serial {
			for k := uint64(0); k < n; k += m {
				butterflyRange(buf, tw, k, half, stride, 0, half)
			}
			continue
		}
		if blocks := n / m; blocks >= uint64(workers) {
			parallel.ExecuteWorkers(int(blocks), workers, func(bs, be int) {
				for b := bs; b < be; b++ {
					k := uint64(b) * m
					butterflyRange(buf, tw, k, half, stride, 0, half)
				}
			})
		} else {
			for k := uint64(0); k < n; k += m {
				parallel.ExecuteWorkers(int(half), workers, func(js, je int) {
					butterflyRange(buf, tw, k, half, stride, uint64(js), uint64(je))
				})
			}
		}
	}
	if !d.radix3() {
		return
	}
	if serial {
		combine3(a, buf, tw, 0, n/3)
		return
	}
	parallel.ExecuteWorkers(int(n/3), workers, func(js, je int) {
		combine3(a, buf, tw, uint64(js), uint64(je))
	})
}

// gather3 writes the subsequence src[3q+r], q ∈ [q0, q1), bit-reversed into
// the r-th third of dst: dst[r·m + rev(q)] = src[3q+r], with m = 2^log.
func gather3(dst, src []fr.Element, log int, q0, q1 uint64) {
	m := uint64(1) << log
	shift := 64 - uint(log)
	for q := q0; q < q1; q++ {
		j := bits.Reverse64(q) >> shift // 0 when log = 0
		dst[j], dst[m+j], dst[2*m+j] = src[3*q], src[3*q+1], src[3*q+2]
	}
}

// combine3 is the radix-3 pass for j ∈ [j0, j1): from the three length-m
// transforms F_r held in the thirds of f it writes, with t1 = ω^j·F_1[j],
// t2 = ω^2j·F_2[j] and the cube root of one ω₃ = ω^m,
//
//	dst[j]    = F_0[j] + t1 + t2
//	dst[j+m]  = F_0[j] + ω₃·t1 + ω₃²·t2 = F_0[j] − t2 + ω₃·(t1 − t2)
//	dst[j+2m] = F_0[j] + ω₃²·t1 + ω₃·t2 = F_0[j] − t1 − ω₃·(t1 − t2)
//
// using ω₃² = −1 − ω₃: two twiddles and one ω₃ multiplication per triple.
func combine3(dst, f, tw []fr.Element, j0, j1 uint64) {
	m := uint64(len(f)) / 3
	w3 := &tw[m]
	for j := j0; j < j1; j++ {
		var t1, t2, s, u fr.Element
		t1.Mul(&f[m+j], &tw[j])
		t2.Mul(&f[2*m+j], &tw[2*j])
		s.Sub(&t1, &t2)
		s.Mul(&s, w3)
		u.Add(&f[j], &t1)
		dst[j].Add(&u, &t2)
		u.Sub(&f[j], &t2)
		dst[j+m].Add(&u, &s)
		u.Sub(&f[j], &t1)
		dst[j+2*m].Sub(&u, &s)
	}
}

// butterflyRange applies the stage butterflies for indices j ∈ [j0, j1)
// of the block starting at k: (a[k+j], a[k+j+half]) ←
// (a[k+j] + ω^(j·stride)·a[k+j+half], a[k+j] - ω^(j·stride)·a[k+j+half]).
func butterflyRange(a, tw []fr.Element, k, half, stride, j0, j1 uint64) {
	for j := j0; j < j1; j++ {
		idx := k + j
		a[idx+half].Mul(&a[idx+half], &tw[j*stride])
		fr.Butterfly(&a[idx], &a[idx+half])
	}
}

// bitReversePermute applies the bit-reversal reordering. Each swap pair
// (i, rev(i)) is executed exactly once, by the smaller index, so the
// parallel split over i is race-free.
func bitReversePermute(a []fr.Element, log int, serial bool) {
	n := uint64(len(a))
	shift := 64 - uint(log)
	if serial {
		for i := uint64(0); i < n; i++ {
			j := bits.Reverse64(i) >> shift
			if i < j {
				a[i], a[j] = a[j], a[i]
			}
		}
		return
	}
	parallel.Execute(int(n), func(start, end int) {
		for i := uint64(start); i < uint64(end); i++ {
			j := bits.Reverse64(i) >> shift
			if i < j {
				a[i], a[j] = a[j], a[i]
			}
		}
	})
}
