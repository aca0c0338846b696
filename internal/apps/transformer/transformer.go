// Package transformer implements the §IV-E2 application: proving the
// forward computation of a transformer block — scaled dot-product attention
// followed by a two-layer feed-forward network with ReLU — over a committed
// input sequence, so that model inference can be delegated and sold as a
// verifiable data asset.
//
// One documented substitution keeps softmax in SNARK-friendly algebra: the
// row-wise exponential is replaced by its cubic Taylor approximation
// exp(z) ≈ 1 + z + z²/2 + z³/6 (accurate for the bounded scores the block
// produces), normalized with an exact fixed-point division gadget. The
// native Apply runs the gadget itself on a scratch circuit, so native and
// in-circuit results agree bit-for-bit.
package transformer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/core"
)

// Config fixes a block's dimensions (and hence the circuit shape).
type Config struct {
	// SeqLen is the number of input tokens m.
	SeqLen int
	// DModel is the input embedding width.
	DModel int
	// DK is the attention head width (queries/keys/values).
	DK int
	// DFF is the feed-forward hidden width.
	DFF int
	// DOut is the output width.
	DOut int
}

// Validate checks the dimensions.
func (c Config) Validate() error {
	if c.SeqLen <= 0 || c.DModel <= 0 || c.DK <= 0 || c.DFF <= 0 || c.DOut <= 0 {
		return errors.New("transformer: all dimensions must be positive")
	}
	return nil
}

// ParamCount returns the number of weight parameters — the "Parameters"
// column of Table I.
func (c Config) ParamCount() int {
	return 3*c.DModel*c.DK + // Wq, Wk, Wv
		c.DK*c.DFF + c.DFF + // W1, b1
		c.DFF*c.DOut + c.DOut // W2, b2
}

// Block is a transformer block with concrete weights. Weights are public
// (the model being exercised); the committed input sequence is the witness.
type Block struct {
	Cfg        Config
	Wq, Wk, Wv [][]float64 // DModel × DK
	W1         [][]float64 // DK × DFF
	B1         []float64   // DFF
	W2         [][]float64 // DFF × DOut
	B2         []float64   // DOut
	// UseLookups compiles the π_t circuit with the range-table lookup
	// lowering and custom hash gates (DESIGN.md §15); the attention
	// normalizations and ReLUs are range-check-dominated.
	UseLookups bool
}

// NewBlock builds a block with small deterministic pseudo-random weights
// (seeded), keeping activations inside the approximation's sweet spot.
func NewBlock(cfg Config, seed int64) (*Block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*2862933555777941757 + 3037000493
		// Uniform in [-0.2, 0.2].
		return (float64(state>>11)/float64(1<<53) - 0.5) * 0.4
	}
	mat := func(r, c int) [][]float64 {
		m := make([][]float64, r)
		for i := range m {
			m[i] = make([]float64, c)
			for j := range m[i] {
				m[i][j] = next()
			}
		}
		return m
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	return &Block{
		Cfg: cfg,
		Wq:  mat(cfg.DModel, cfg.DK),
		Wk:  mat(cfg.DModel, cfg.DK),
		Wv:  mat(cfg.DModel, cfg.DK),
		W1:  mat(cfg.DK, cfg.DFF),
		B1:  vec(cfg.DFF),
		W2:  mat(cfg.DFF, cfg.DOut),
		B2:  vec(cfg.DOut),
	}, nil
}

// EncodeSequence packs a SeqLen × DModel input into a core.Dataset.
func (c Config) EncodeSequence(seq [][]float64) (core.Dataset, error) {
	if len(seq) != c.SeqLen {
		return nil, fmt.Errorf("transformer: sequence length %d, want %d", len(seq), c.SeqLen)
	}
	out := make(core.Dataset, 0, c.SeqLen*c.DModel)
	for _, row := range seq {
		if len(row) != c.DModel {
			return nil, fmt.Errorf("transformer: row width %d, want %d", len(row), c.DModel)
		}
		for _, v := range row {
			out = append(out, circuit.FixedFromFloat(v))
		}
	}
	return out, nil
}

var (
	_ core.Processor       = (*Block)(nil)
	_ core.LookupProcessor = (*Block)(nil)
)

// WantsLookupCircuit implements core.LookupProcessor.
func (bl *Block) WantsLookupCircuit() bool { return bl.UseLookups }

// Name implements core.Processor. It includes a digest of the weights:
// two blocks with equal dimensions but different parameters are different
// relations and must not share a verifying key.
func (bl *Block) Name() string {
	c := bl.Cfg
	h := fnv.New64a()
	writeMat := func(m [][]float64) {
		for _, row := range m {
			for _, v := range row {
				_ = binary.Write(h, binary.BigEndian, v)
			}
		}
	}
	writeMat(bl.Wq)
	writeMat(bl.Wk)
	writeMat(bl.Wv)
	writeMat(bl.W1)
	writeMat(bl.W2)
	_ = binary.Write(h, binary.BigEndian, bl.B1)
	_ = binary.Write(h, binary.BigEndian, bl.B2)
	suffix := ""
	if bl.UseLookups {
		suffix = "/lk"
	}
	return fmt.Sprintf("transformer/m%d/d%d/k%d/f%d/o%d/w%x%s",
		c.SeqLen, c.DModel, c.DK, c.DFF, c.DOut, h.Sum64(), suffix)
}

// Apply implements core.Processor by running the gadget on a scratch
// circuit, guaranteeing exact agreement with the proved computation.
func (bl *Block) Apply(src core.Dataset) (core.Dataset, error) {
	if len(src) != bl.Cfg.SeqLen*bl.Cfg.DModel {
		return nil, fmt.Errorf("transformer: input has %d elements, want %d",
			len(src), bl.Cfg.SeqLen*bl.Cfg.DModel)
	}
	b := circuit.NewBuilder()
	wires := make([]circuit.Variable, len(src))
	for i := range src {
		wires[i] = b.Secret(src[i])
	}
	outWires := bl.Gadget(b, wires)
	out := make(core.Dataset, len(outWires))
	for i := range outWires {
		out[i] = b.Value(outWires[i])
	}
	return out, nil
}

// Gadget implements core.Processor: the full block forward pass.
func (bl *Block) Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable {
	cfg := bl.Cfg
	m := cfg.SeqLen

	constMat := func(w [][]float64) [][]circuit.Variable {
		out := make([][]circuit.Variable, len(w))
		for i := range w {
			out[i] = make([]circuit.Variable, len(w[i]))
			for j := range w[i] {
				out[i][j] = b.Constant(circuit.FixedFromFloat(w[i][j]))
			}
		}
		return out
	}
	wq := constMat(bl.Wq)
	wk := constMat(bl.Wk)
	wv := constMat(bl.Wv)
	w1 := constMat(bl.W1)
	w2 := constMat(bl.W2)

	// Token rows.
	rows := make([][]circuit.Variable, m)
	for i := 0; i < m; i++ {
		rows[i] = src[i*cfg.DModel : (i+1)*cfg.DModel]
	}

	// q_i = x_i·Wq etc. (fixed-point mat-vec).
	fixedVecMat := func(x []circuit.Variable, w [][]circuit.Variable, cols int) []circuit.Variable {
		out := make([]circuit.Variable, cols)
		for j := 0; j < cols; j++ {
			acc := b.Zero()
			for i := range x {
				acc = b.Add(acc, b.FixedMul(x[i], w[i][j]))
			}
			out[j] = acc
		}
		return out
	}
	qs := make([][]circuit.Variable, m)
	ks := make([][]circuit.Variable, m)
	vs := make([][]circuit.Variable, m)
	for i := 0; i < m; i++ {
		qs[i] = fixedVecMat(rows[i], wq, cfg.DK)
		ks[i] = fixedVecMat(rows[i], wk, cfg.DK)
		vs[i] = fixedVecMat(rows[i], wv, cfg.DK)
	}

	// Attention: scores, cubic-Taylor softmax, weighted values.
	invSqrtDK := b.Constant(circuit.FixedFromFloat(1.0 / math.Sqrt(float64(cfg.DK))))
	zs := make([][]circuit.Variable, m)
	for i := 0; i < m; i++ {
		es := make([]circuit.Variable, m)
		for j := 0; j < m; j++ {
			dot := b.Zero()
			for t := 0; t < cfg.DK; t++ {
				dot = b.Add(dot, b.FixedMul(qs[i][t], ks[j][t]))
			}
			score := b.FixedMul(dot, invSqrtDK)
			es[j] = gadgetExpApprox(b, score)
		}
		sum := b.Sum(es)
		z := make([]circuit.Variable, cfg.DK)
		for t := range z {
			z[t] = b.Zero()
		}
		for j := 0; j < m; j++ {
			a := b.FixedDivPos(es[j], sum, 50)
			for t := 0; t < cfg.DK; t++ {
				z[t] = b.Add(z[t], b.FixedMul(a, vs[j][t]))
			}
		}
		zs[i] = z
	}

	// FFN: d_i = ReLU(z_i·W1 + b1)·W2 + b2.
	out := make([]circuit.Variable, 0, m*cfg.DOut)
	for i := 0; i < m; i++ {
		h := fixedVecMat(zs[i], w1, cfg.DFF)
		for j := 0; j < cfg.DFF; j++ {
			h[j] = b.Add(h[j], b.Constant(circuit.FixedFromFloat(bl.B1[j])))
			h[j] = b.ReLU(h[j], 60)
		}
		d := fixedVecMat(h, w2, cfg.DOut)
		for j := 0; j < cfg.DOut; j++ {
			d[j] = b.Add(d[j], b.Constant(circuit.FixedFromFloat(bl.B2[j])))
		}
		out = append(out, d...)
	}
	return out
}

// gadgetExpApprox emits exp(z) ≈ 1 + z + z²/2 + z³/6 in fixed point.
func gadgetExpApprox(b *circuit.Builder, z circuit.Variable) circuit.Variable {
	one := b.Constant(circuit.FixedFromFloat(1.0))
	halfC := b.Constant(circuit.FixedFromFloat(0.5))
	sixthC := b.Constant(circuit.FixedFromFloat(1.0 / 6.0))
	z2 := b.FixedMul(z, z)
	z3 := b.FixedMul(z2, z)
	acc := b.Add(one, z)
	acc = b.Add(acc, b.FixedMul(z2, halfC))
	return b.Add(acc, b.FixedMul(z3, sixthC))
}
