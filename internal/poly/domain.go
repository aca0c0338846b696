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

// Domain is a multiplicative subgroup of Fr* of power-of-two order, used as
// an FFT evaluation domain. All Plonk polynomials live on such a domain.
//
// Twiddle, element and coset-power tables are built lazily on first use and
// cached for the lifetime of the domain, so repeated transforms (the Plonk
// prover runs 20+ FFTs per proof over the same two domains) stop paying the
// O(N) chained multiplications per call.
type Domain struct {
	// N is the domain size, a power of two.
	N uint64
	// Log is log2(N).
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
	twiddleFwd  []fr.Element // ω^j for j < N/2
	twiddleInv  []fr.Element // ω⁻ʲ for j < N/2

	elemsOnce sync.Once
	elems     []fr.Element // ω^i for i < N
	elemsInv  []fr.Element // ω⁻ⁱ for i < N

	cosetOnce   sync.Once
	cosetPow    []fr.Element // g^i for i < N
	cosetPowInv []fr.Element // g⁻ⁱ for i < N
}

// NewDomain returns the smallest domain of size ≥ n. It errors when n
// exceeds 2^28 (the two-adicity of the scalar field).
func NewDomain(n uint64) (*Domain, error) {
	if n == 0 {
		return nil, fmt.Errorf("poly: domain size must be positive")
	}
	logN := 0
	size := uint64(1)
	for size < n {
		size <<= 1
		logN++
	}
	gen, err := fr.RootOfUnity(logN)
	if err != nil {
		return nil, fmt.Errorf("poly: domain of size %d: %w", n, err)
	}
	d := &Domain{N: size, Log: logN, Gen: gen}
	d.GenInv.Inverse(&gen)
	nEl := fr.NewElement(size)
	d.NInv.Inverse(&nEl)
	d.CosetShift = fr.NewElement(fr.MultiplicativeGenerator)
	d.CosetShiftInv.Inverse(&d.CosetShift)
	return d, nil
}

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

// ElementsInv returns ω^0, ω⁻¹, …, ω^-(N-1) in order. Like Elements, the
// returned slice is cached and must be treated as read-only.
func (d *Domain) ElementsInv() []fr.Element {
	d.buildElements()
	return d.elemsInv
}

// twiddles returns the cached half-size twiddle tables (ω^j and ω⁻ʲ for
// j < N/2); the butterfly at stage s, index j reads entry j·(N>>s).
func (d *Domain) twiddles() (fwd, inv []fr.Element) {
	d.twiddleOnce.Do(func() {
		d.twiddleFwd = fr.Powers(&d.Gen, int(d.N/2))
		d.twiddleInv = fr.Powers(&d.GenInv, int(d.N/2))
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

// fft is an in-place iterative radix-2 Cooley–Tukey transform with
// bit-reversal reordering. tw is the half-size twiddle table for the
// transform direction (tw[j] = root^j, j < N/2).
//
// Parallelisation: in early stages the row is made of many independent
// blocks, which are split across workers block-wise; in the final stages
// (few blocks, long butterfly runs) the butterfly index range inside each
// block is split instead. Every butterfly writes the same two slots it
// reads and each output element is produced by the same multiply/add
// sequence as the serial transform, so the result is bit-identical for any
// worker count.
//
// The public entry points (FFT, IFFT, …) have already validated
// len(a) == d.N; fft assumes it.
func (d *Domain) fft(a []fr.Element, tw []fr.Element, workers int) {
	n := uint64(len(a))
	if n == 1 {
		return
	}
	serial := workers <= 1 || n < parallelFFTThreshold
	bitReversePermute(a, d.Log, serial)
	for s := 1; s <= d.Log; s++ {
		m := uint64(1) << s
		half := m >> 1
		stride := n >> s
		if serial {
			for k := uint64(0); k < n; k += m {
				butterflyRange(a, tw, k, half, stride, 0, half)
			}
			continue
		}
		if blocks := n / m; blocks >= uint64(workers) {
			parallel.ExecuteWorkers(int(blocks), workers, func(bs, be int) {
				for b := bs; b < be; b++ {
					k := uint64(b) * m
					butterflyRange(a, tw, k, half, stride, 0, half)
				}
			})
		} else {
			for k := uint64(0); k < n; k += m {
				parallel.ExecuteWorkers(int(half), workers, func(js, je int) {
					butterflyRange(a, tw, k, half, stride, uint64(js), uint64(je))
				})
			}
		}
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
