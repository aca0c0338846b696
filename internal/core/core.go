// Package core implements ZKDET itself: the generic data transformation
// protocol (§IV-B) with its decoupled proofs of encryption π_e and
// transformation π_t, the transformation predicates of §IV-D, the
// key-secure two-phase exchange protocol of §IV-F, and the ZKCP baseline
// (§III-C) it is evaluated against — all over the Plonk/KZG/Poseidon
// stack in the sibling packages.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/obs"
	"github.com/zkdet/zkdet/internal/plonk"
)

// System holds the universal SRS and a cache of circuit-specific
// preprocessing (Plonk's circuit setup is per-shape, one-time; the SRS is
// universal and reused, which is the point of the Plonk construction the
// paper selects).
type System struct {
	srs *kzg.SRS
	// setup is plonk.Setup; a field so a test can count its calls.
	setup func(*plonk.ConstraintSystem, *kzg.SRS) (*plonk.ProvingKey, *plonk.VerifyingKey, error)

	mu sync.Mutex
	// cache holds one run-once setup per circuit shape: the first caller
	// for a shape installs it under mu and every caller, first or not, gets
	// the keys by calling it, so concurrent first callers share one
	// plonk.Setup instead of each running (and discarding) their own.
	cache map[string]func() (*plonk.ProvingKey, error) // guarded by mu
	// keys holds every proving key whose setup has finished, by circuit
	// shape, for Metrics to read without waiting on a setup in progress.
	keys map[string]*plonk.ProvingKey // guarded by mu

	// phases times the part of each proof the System runs itself, per
	// circuit family (families) and corePhase.
	phases [len(families)][nbCorePhases]obs.Histogram
}

// families are the circuit families a System proves: the first segment of
// every circuit shape key ("pi_e/4" is a π_e). Metrics reports each under
// its own constant keys; a shape key of any other family is not timed
// (TestShapeKeysHaveFamily checks every key this package builds).
var families = [...]string{"pi_e", "pi_p", "pi_k", "pi_t", "pi_f"}

// familyOf returns the index in families of the circuit shape key, or -1.
func familyOf(key string) int {
	f, _, _ := strings.Cut(key, "/")
	for i, name := range families {
		if name == f {
			return i
		}
	}
	return -1
}

// corePhase is one timed step of a proof that runs before plonk.Prove.
type corePhase int

const (
	phaseBuild   corePhase = iota // the circuit builder's run: gadgets and witness
	phaseCompile                  // circuit.Builder.Compile
	phaseSatisfy                  // ConstraintSystem.IsSatisfied
	nbCorePhases
)

// corePhaseNames are the corePhases' names, as Metrics keys spell them.
var corePhaseNames = [nbCorePhases]string{"build", "compile", "satisfy"}

// Metrics reports, for every circuit family, the median duration in
// milliseconds of each phase of its proofs: "plonk.<family>.<phase>P50Ms"
// for the plonk.Phase values (Prove's phases over every proof, Setup's over
// every key of the family's shapes) and "core.<family>.buildP50Ms",
// "compileP50Ms" and "satisfyP50Ms" for the steps before plonk.Prove. Every
// key is always present; a family that has not proved reads 0. A duration
// is a function of the circuit's size and shape, which are public. A median
// mixes every shape of its family — π_e over 4 and over 64 elements, π_t's
// duplication and processing — so it reads one shape's cost only where a
// family has proved one shape.
func (s *System) Metrics() map[string]float64 {
	s.mu.Lock()
	byFamily := make([][]*plonk.ProvingKey, len(families))
	for key, pk := range s.keys {
		if f := familyOf(key); f >= 0 {
			byFamily[f] = append(byFamily[f], pk)
		}
	}
	s.mu.Unlock()
	ms := func(h *obs.Histogram) float64 { return float64(h.Quantile(0.5)) / 1e6 }
	out := make(map[string]float64)
	for f, family := range families {
		for p := range plonk.NbPhases {
			var h obs.Histogram
			for _, pk := range byFamily[f] {
				h.Merge(pk.Phase(p))
			}
			out["plonk."+family+"."+p.String()+"P50Ms"] = ms(&h)
		}
		for p, phase := range corePhaseNames {
			out["core."+family+"."+phase+"P50Ms"] = ms(&s.phases[f][p])
		}
	}
	return out
}

// NewSystem creates a proving system over an SRS (from kzg.Setup or a
// ceremony). The SRS bounds the largest provable circuit.
func NewSystem(srs *kzg.SRS) *System {
	return &System{
		srs: srs, setup: plonk.Setup,
		cache: make(map[string]func() (*plonk.ProvingKey, error)),
		keys:  make(map[string]*plonk.ProvingKey),
	}
}

// NewTestSystem builds a System with a deterministic (insecure) SRS big
// enough for circuits of maxConstraints gates; for tests and benchmarks.
// Its τ is the public constant 0x5eed2025, so anyone can open any
// commitment against this SRS to any value and forge any proof for any
// statement. zkdet-node and zkdet-cluster still prove over it today.
func NewTestSystem(maxConstraints int) (*System, error) {
	powers, err := SRSPowers(maxConstraints)
	if err != nil {
		return nil, err
	}
	tau := fr.NewElement(0x5eed2025)
	srs, err := kzg.NewSRSFromSecret(powers, &tau)
	if err != nil {
		return nil, err
	}
	return NewSystem(srs), nil
}

// SRSPowers is the SRS size for circuits of up to maxConstraints gates:
// plonk.SRSPowers(n) = 3n, n the bound rounded up to a power of two ≥ 64,
// which covers every key whose domain holds at most n rows. A circuit of
// exactly n gates plus its padding row needs a bound of 2n.
func SRSPowers(maxConstraints int) (int, error) {
	n := 64
	for n < maxConstraints {
		n <<= 1
	}
	return plonk.SRSPowers(n)
}

// SRS exposes the system's reference string.
func (s *System) SRS() *kzg.SRS { return s.srs }

// newHashCircuit returns the builder of every circuit in this package whose
// gates are hashing plus wiring (π_e, π_p, π_k, and the ZKCP and monolithic
// baselines): Poseidon rounds compile to one custom-gate row each (DESIGN.md
// §15.3). Lookups stay off on purpose: only π_p has range checks to look
// up, and the 2^12 table would pin it to a 4 096-row domain to save 112 of
// its 349 rows — at n = 4 these circuits fit in 512 or fewer.
// buildTransformCircuit (lookups on, which a structural π_t, having no range
// check, compiles exactly as it would here) is the one that does not start
// here; it says why.
func newHashCircuit() *circuit.Builder {
	b := circuit.NewBuilder()
	b.EnableCustomGates()
	return b
}

// keysFor compiles the builder and returns (possibly cached) Plonk keys for
// the circuit shape identified by key. Builders passed here must produce a
// witness-independent gate structure for a fixed shape key, which all
// circuits in this package do.
func (s *System) keysFor(key string, b *circuit.Builder) (*plonk.ProvingKey, *plonk.ConstraintSystem, []fr.Element, error) {
	cs, witness, err := b.Compile()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: compiling %s: %w", key, err)
	}
	pk, err := s.keyFor(key, cs)
	return pk, cs, witness, err
}

// keyFor returns the (possibly cached) proving key of the circuit shape
// identified by key, whose constraint system is cs.
func (s *System) keyFor(key string, cs *plonk.ConstraintSystem) (*plonk.ProvingKey, error) {
	s.mu.Lock()
	keys, ok := s.cache[key]
	if !ok {
		keys = sync.OnceValues(func() (*plonk.ProvingKey, error) {
			pk, _, err := s.setup(cs, s.srs)
			if err == nil {
				s.mu.Lock()
				s.keys[key] = pk
				s.mu.Unlock()
			}
			return pk, err
		})
		s.cache[key] = keys
	}
	s.mu.Unlock()
	pk, err := keys()
	if err != nil {
		return nil, fmt.Errorf("core: setup %s: %w", key, err)
	}
	return pk, nil
}

// vkFor returns the verifying key for a circuit shape, building it (with a
// zero witness) if the shape has not been set up yet.
func (s *System) vkFor(key string, build func() *circuit.Builder) (*plonk.VerifyingKey, error) {
	s.mu.Lock()
	keys, ok := s.cache[key]
	s.mu.Unlock()
	if ok {
		pk, err := keys()
		if err != nil {
			return nil, fmt.Errorf("core: setup %s: %w", key, err)
		}
		return pk.VK, nil
	}
	pk, _, _, err := s.keysFor(key, build())
	if err != nil {
		return nil, err
	}
	return pk.VK, nil
}

// prove runs the standard build→compile→setup→check→prove pipeline and
// times the steps before plonk.Prove into the family's histograms (a
// first proof's setup is in none of them).
func (s *System) prove(key string, build func() *circuit.Builder) (*plonk.Proof, error) {
	start := time.Now()
	b := build()
	built := time.Now()
	cs, witness, err := b.Compile()
	if err != nil {
		return nil, fmt.Errorf("core: compiling %s: %w", key, err)
	}
	compiled := time.Now()
	pk, err := s.keyFor(key, cs)
	if err != nil {
		return nil, err
	}
	keyed := time.Now()
	if err := cs.IsSatisfied(witness); err != nil {
		return nil, fmt.Errorf("core: %s witness: %w", key, err)
	}
	satisfied := time.Now()
	proof, err := plonk.Prove(pk, witness)
	if err != nil {
		return nil, fmt.Errorf("core: proving %s: %w", key, err)
	}
	if f := familyOf(key); f >= 0 {
		ph := &s.phases[f]
		ph[phaseBuild].Observe(built.Sub(start))
		ph[phaseCompile].Observe(compiled.Sub(built))
		ph[phaseSatisfy].Observe(satisfied.Sub(keyed))
	}
	return proof, nil
}

// proofCheck is one proof ready to verify: the key of the circuit it claims,
// the public inputs its statement fixes, and the name an error gives it.
type proofCheck struct {
	label  string
	vk     *plonk.VerifyingKey
	proof  *plonk.Proof
	public []fr.Element
}

// verifyAll checks every proof and pays one pairing for all of them: each
// is added to one plonk.Batch (the keys differ per circuit, the SRS is the
// System's, so every statement folds), which prepares them on the worker
// pool and names the refused ones. The error names the first refused proof
// by its label and wraps the plonk error; VerifyEncryption and
// VerifyTransform are the one-proof case, AuditLineage the many-proof one.
func verifyAll(checks []proofCheck) error {
	if len(checks) == 0 {
		return nil
	}
	batch := plonk.NewBatch(checks[0].vk)
	for _, c := range checks {
		if err := batch.AddFor(c.vk, c.proof, c.public); err != nil {
			return fmt.Errorf("core: %s: %w", c.label, err)
		}
	}
	err := batch.Check()
	var refused *plonk.BatchError
	if errors.As(err, &refused) && len(refused.Offenders) > 0 {
		return fmt.Errorf("core: %s: %w: pairing check", checks[refused.Offenders[0]].label, plonk.ErrProofInvalid)
	}
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
