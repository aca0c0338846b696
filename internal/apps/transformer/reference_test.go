package transformer

import (
	"fmt"
	"math"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/core"
)

// The float side the tests hold the block's circuit to: decoding its
// fixed-point output, and the forward pass with a real softmax.

// DecodeOutput unpacks a SeqLen × DOut output dataset.
func (c Config) DecodeOutput(d core.Dataset) ([][]float64, error) {
	if len(d) != c.SeqLen*c.DOut {
		return nil, fmt.Errorf("transformer: output has %d elements, want %d", len(d), c.SeqLen*c.DOut)
	}
	out := make([][]float64, c.SeqLen)
	for i := range out {
		out[i] = make([]float64, c.DOut)
		for j := range out[i] {
			out[i][j] = circuit.FixedToFloat(d[i*c.DOut+j])
		}
	}
	return out, nil
}

// ReferenceForward computes the float forward pass with real softmax — used
// by tests to bound the approximation error.
func (bl *Block) ReferenceForward(seq [][]float64) [][]float64 {
	cfg := bl.Cfg
	m := cfg.SeqLen
	vecMat := func(x []float64, w [][]float64, cols int) []float64 {
		out := make([]float64, cols)
		for j := 0; j < cols; j++ {
			for i := range x {
				out[j] += x[i] * w[i][j]
			}
		}
		return out
	}
	qs := make([][]float64, m)
	ks := make([][]float64, m)
	vs := make([][]float64, m)
	for i := 0; i < m; i++ {
		qs[i] = vecMat(seq[i], bl.Wq, cfg.DK)
		ks[i] = vecMat(seq[i], bl.Wk, cfg.DK)
		vs[i] = vecMat(seq[i], bl.Wv, cfg.DK)
	}
	out := make([][]float64, m)
	for i := 0; i < m; i++ {
		es := make([]float64, m)
		sum := 0.0
		for j := 0; j < m; j++ {
			dot := 0.0
			for t := 0; t < cfg.DK; t++ {
				dot += qs[i][t] * ks[j][t]
			}
			es[j] = math.Exp(dot / math.Sqrt(float64(cfg.DK)))
			sum += es[j]
		}
		z := make([]float64, cfg.DK)
		for j := 0; j < m; j++ {
			a := es[j] / sum
			for t := 0; t < cfg.DK; t++ {
				z[t] += a * vs[j][t]
			}
		}
		h := vecMat(z, bl.W1, cfg.DFF)
		for j := range h {
			h[j] += bl.B1[j]
			if h[j] < 0 {
				h[j] = 0
			}
		}
		d := vecMat(h, bl.W2, cfg.DOut)
		for j := range d {
			d[j] += bl.B2[j]
		}
		out[i] = d
	}
	return out
}
