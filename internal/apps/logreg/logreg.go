// Package logreg implements the §IV-E1 application: training a logistic
// regression model on a dataset and proving, in zero knowledge, that the
// resulting parameters have converged — so a model can be sold as a derived
// data asset whose validity is verifiable without revealing the training
// data.
//
// Two documented substitutions keep the circuit in SNARK-friendly algebra
// (the paper's "gadget library can be of help" for exp/log):
//
//   - The sigmoid is replaced by its odd cubic approximation
//     σ(z) ≈ 1/2 + z/4 − z³/48, accurate to ~1% on |z| ≤ 2.
//   - Convergence is asserted as ‖∇J(β)‖∞ ≤ ε instead of
//     |J(β^{k+1})−J(β^k)| ≤ ε. Along a gradient step the loss change is
//     Θ(α‖∇J‖²), so the two predicates bound the same quantity while the
//     gradient form avoids an in-circuit logarithm.
package logreg

import (
	"errors"
	"fmt"
	"math"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
)

// Sample is one labelled training point.
type Sample struct {
	X []float64
	Y float64 // 0 or 1
}

// Model is a trained parameter vector (bias first).
type Model struct {
	Bias    float64
	Weights []float64
}

// Errors returned by the package.
var (
	ErrBadDataset = errors.New("logreg: malformed dataset encoding")
	ErrNoSamples  = errors.New("logreg: empty training set")
)

// EncodeSamples packs samples into a core.Dataset:
// [n, k, x_11…x_1k, y_1, …, x_n1…x_nk, y_n] in fixed point.
func EncodeSamples(samples []Sample) (core.Dataset, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	k := len(samples[0].X)
	out := core.Dataset{fr.NewElement(uint64(len(samples))), fr.NewElement(uint64(k))}
	for _, s := range samples {
		if len(s.X) != k {
			return nil, fmt.Errorf("logreg: ragged sample (want %d features)", k)
		}
		for _, x := range s.X {
			out = append(out, circuit.FixedFromFloat(x))
		}
		out = append(out, circuit.FixedFromFloat(s.Y))
	}
	return out, nil
}

// DecodeSamples reverses EncodeSamples.
func DecodeSamples(d core.Dataset) ([]Sample, error) {
	if len(d) < 2 {
		return nil, ErrBadDataset
	}
	n64, ok1 := d[0].Uint64()
	k64, ok2 := d[1].Uint64()
	if !ok1 || !ok2 {
		return nil, ErrBadDataset
	}
	n, k := int(n64), int(k64)
	if len(d) != 2+n*(k+1) {
		return nil, fmt.Errorf("%w: %d elements for n=%d k=%d", ErrBadDataset, len(d), n, k)
	}
	samples := make([]Sample, n)
	off := 2
	for i := 0; i < n; i++ {
		xs := make([]float64, k)
		for j := 0; j < k; j++ {
			xs[j] = circuit.FixedToFloat(d[off])
			off++
		}
		samples[i] = Sample{X: xs, Y: circuit.FixedToFloat(d[off])}
		off++
	}
	return samples, nil
}

// sigmoidApprox is the circuit's cubic sigmoid, mirrored natively so the
// trained model satisfies the in-circuit gradient bound.
func sigmoidApprox(z float64) float64 {
	if z > 2 {
		z = 2
	}
	if z < -2 {
		z = -2
	}
	return 0.5 + z/4 - z*z*z/48
}

// Train runs gradient descent on the L2-regularized loss (J + λ‖β‖²/2)
// with the approximated sigmoid, until the gradient's max-norm drops below
// tol (or maxIters passes). The regularizer keeps the minimizer finite —
// on separable data the unregularized loss has no minimum and β diverges
// out of the sigmoid approximation's range.
func Train(samples []Sample, step, lambda float64, maxIters int, tol float64) (Model, error) {
	if len(samples) == 0 {
		return Model{}, ErrNoSamples
	}
	k := len(samples[0].X)
	beta := make([]float64, k+1) // beta[0] is the bias
	for iter := 0; iter < maxIters; iter++ {
		grad := gradient(samples, beta, lambda)
		maxg := 0.0
		for _, g := range grad {
			if a := math.Abs(g); a > maxg {
				maxg = a
			}
		}
		if maxg <= tol {
			break
		}
		for j := range beta {
			beta[j] -= step * grad[j]
		}
	}
	return Model{Bias: beta[0], Weights: append([]float64{}, beta[1:]...)}, nil
}

func gradient(samples []Sample, beta []float64, lambda float64) []float64 {
	k := len(samples[0].X)
	grad := make([]float64, k+1)
	n := float64(len(samples))
	for _, s := range samples {
		z := beta[0]
		for j, x := range s.X {
			z += beta[j+1] * x
		}
		p := sigmoidApprox(z)
		diff := p - s.Y
		grad[0] += diff / n
		for j, x := range s.X {
			grad[j+1] += diff * x / n
		}
	}
	for j := range grad {
		grad[j] += lambda * beta[j]
	}
	return grad
}

// Predict applies the model with the approximated sigmoid.
func (m Model) Predict(x []float64) float64 {
	z := m.Bias
	for j := range x {
		z += m.Weights[j] * x[j]
	}
	return sigmoidApprox(z)
}

// EncodeModel packs a model as a core.Dataset [k, bias, w_1…w_k].
func EncodeModel(m Model) core.Dataset {
	out := core.Dataset{fr.NewElement(uint64(len(m.Weights))), circuit.FixedFromFloat(m.Bias)}
	for _, w := range m.Weights {
		out = append(out, circuit.FixedFromFloat(w))
	}
	return out
}

// DecodeModel reverses EncodeModel.
func DecodeModel(d core.Dataset) (Model, error) {
	if len(d) < 2 {
		return Model{}, ErrBadDataset
	}
	k64, ok := d[0].Uint64()
	if !ok || len(d) != int(k64)+2 {
		return Model{}, ErrBadDataset
	}
	m := Model{Bias: circuit.FixedToFloat(d[1])}
	for j := 0; j < int(k64); j++ {
		m.Weights = append(m.Weights, circuit.FixedToFloat(d[2+j]))
	}
	return m, nil
}

// Trainer is the core.Processor proving the convergence predicate: it maps
// an encoded sample set to the encoded trained model, with constraints
// binding the model to a small gradient over exactly that training data.
type Trainer struct {
	// N and K fix the circuit shape (samples × features).
	N, K int
	// Step, Lambda and MaxIters drive the native training (Lambda is the
	// L2 regularization strength, also part of the proved predicate).
	Step     float64
	Lambda   float64
	MaxIters int
	// Epsilon is the ε of the convergence predicate.
	Epsilon float64
}

var _ core.Processor = (*Trainer)(nil)

// Name implements core.Processor.
func (t *Trainer) Name() string {
	return fmt.Sprintf("logreg/n%d/k%d/l%g/eps%g", t.N, t.K, t.Lambda, t.Epsilon)
}

// Apply implements core.Processor: native training.
func (t *Trainer) Apply(src core.Dataset) (core.Dataset, error) {
	samples, err := DecodeSamples(src)
	if err != nil {
		return nil, err
	}
	if len(samples) != t.N || len(samples[0].X) != t.K {
		return nil, fmt.Errorf("logreg: dataset is %dx%d, trainer wants %dx%d",
			len(samples), len(samples[0].X), t.N, t.K)
	}
	model, err := Train(samples, t.Step, t.Lambda, t.MaxIters, t.Epsilon/2)
	if err != nil {
		return nil, err
	}
	return EncodeModel(model), nil
}

// Gadget implements core.Processor: it allocates the trained parameters as
// witness wires and constrains ‖∇J(β)‖∞ ≤ ε over the source wires.
func (t *Trainer) Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable {
	if len(src) != 2+t.N*(t.K+1) {
		// Processor fixes the signature, so shape errors are deferred to
		// the builder and surface at Compile.
		b.Fail("logreg: %d source wires do not match trainer shape %dx%d (want %d)",
			len(src), t.N, t.K, 2+t.N*(t.K+1))
		out := make([]circuit.Variable, t.K+2)
		for i := range out {
			out[i] = b.Zero()
		}
		return out
	}
	// Recover the model values by training on the wires' current values.
	data := make(core.Dataset, len(src))
	for i := range src {
		data[i] = b.Value(src[i])
	}
	modelEnc, err := t.Apply(data)
	if err != nil {
		// Setup-time builds run on zero data; train on zeros yields the
		// zero model, which is fine structurally.
		modelEnc = make(core.Dataset, t.K+2)
		modelEnc[0] = fr.NewElement(uint64(t.K))
	}

	// Output wires: [k, bias, w_1..w_k].
	out := make([]circuit.Variable, t.K+2)
	out[0] = b.Constant(fr.NewElement(uint64(t.K)))
	beta := make([]circuit.Variable, t.K+1)
	for j := 0; j <= t.K; j++ {
		beta[j] = b.Secret(modelEnc[1+j])
		out[1+j] = beta[j]
	}

	// Shape header must match the declared trainer shape.
	b.AssertConst(src[0], fr.NewElement(uint64(t.N)))
	b.AssertConst(src[1], fr.NewElement(uint64(t.K)))

	// Gradient accumulators (fixed point).
	grad := make([]circuit.Variable, t.K+1)
	for j := range grad {
		grad[j] = b.Zero()
	}
	invN := circuit.FixedFromFloat(1.0 / float64(t.N))
	off := 2
	for i := 0; i < t.N; i++ {
		xs := src[off : off+t.K]
		y := src[off+t.K]
		off += t.K + 1
		// z = bias + Σ w_j x_j
		z := beta[0]
		for j := 0; j < t.K; j++ {
			z = b.Add(z, b.FixedMul(beta[j+1], xs[j]))
		}
		p := gadgetSigmoid(b, z)
		diff := b.Sub(p, y)
		scaled := b.FixedMul(diff, b.Constant(invN))
		grad[0] = b.Add(grad[0], scaled)
		for j := 0; j < t.K; j++ {
			grad[j+1] = b.Add(grad[j+1], b.FixedMul(scaled, xs[j]))
		}
	}
	lambdaC := b.Constant(circuit.FixedFromFloat(t.Lambda))
	eps := circuit.FixedFromFloat(t.Epsilon)
	for j := range grad {
		reg := b.FixedMul(lambdaC, beta[j])
		grad[j] = b.Add(grad[j], reg)
		b.AbsDiffLessOrEqual(grad[j], b.Zero(), eps, 60)
	}
	return out
}

// gadgetSigmoid emits σ(z) ≈ 1/2 + z/4 − z³/48 in fixed point.
func gadgetSigmoid(b *circuit.Builder, z circuit.Variable) circuit.Variable {
	half := b.Constant(circuit.FixedFromFloat(0.5))
	quarter := b.Constant(circuit.FixedFromFloat(0.25))
	c48 := b.Constant(circuit.FixedFromFloat(1.0 / 48.0))
	lin := b.FixedMul(z, quarter)
	z2 := b.FixedMul(z, z)
	z3 := b.FixedMul(z2, z)
	cub := b.FixedMul(z3, c48)
	s := b.Add(half, lin)
	return b.Sub(s, cub)
}
