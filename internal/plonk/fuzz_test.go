package plonk

import (
	"bytes"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// FuzzProofFromBytes drives the versioned proof decoder with arbitrary
// blobs. The decoder must never panic, and any blob it accepts must
// re-encode to the same bytes (the encoding is canonical).
func FuzzProofFromBytes(f *testing.F) {
	// Seed with real encodings of both proof shapes (flags 0x02 from muladd
	// and mimc, 0x03 from lookup and mixed) so the fuzzer starts from deep
	// inside the accepting region.
	var first []byte
	for _, name := range []string{"muladd", "lookup", "mimc", "mixed"} {
		cs, w := goldenCircuit(f, name)
		pk, _, err := Setup(cs, testSRSOnce())
		if err != nil {
			f.Fatal(err)
		}
		p, err := Prove(pk, w)
		if err != nil {
			f.Fatal(err)
		}
		if first == nil {
			first = p.Bytes()
		}
		f.Add(p.Bytes())
	}

	f.Add([]byte("ZKPF"))
	f.Add(first[headerSize:]) // headerless payload: must be rejected
	for _, blob := range v1Proofs(f) {
		f.Add(blob) // version 1: must be rejected
	}
	for _, blob := range v2Proofs(f) {
		f.Add(blob) // version 2: must be rejected
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ProofFromBytes(data)
		if err != nil {
			return
		}
		back := p.Bytes()
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted blob does not re-encode canonically:\n in  %x\n out %x", data, back)
		}
		// A re-decode of the re-encoding must also succeed.
		if _, err := ProofFromBytes(back); err != nil {
			t.Fatalf("re-encoded proof rejected: %v", err)
		}
	})
}

// FuzzLogUpWitness drives the LogUp witness builder with arbitrary wire
// values and lookup-row placements. Whenever buildMultiplicities accepts
// the witness, the running sum built from its output must telescope to
// zero — the algebraic heart of the lookup argument (DESIGN.md §15).
func FuzzLogUpWitness(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(4))
	f.Add([]byte{255, 255, 0, 17, 42}, uint8(8))
	f.Add([]byte{}, uint8(1))

	f.Fuzz(func(t *testing.T, raw []byte, bitsRaw uint8) {
		tableBits := int(bitsRaw%8) + 1 // 1..8 keeps the table small
		const n = 64
		if len(raw) > n {
			raw = raw[:n]
		}
		// One gate per input byte; odd bytes become lookup rows carrying
		// the byte value (possibly out of table for tableBits < 8).
		gates := make([]Gate, n)
		witness := make([]fr.Element, 1, n+1) // witness[0] = 0
		for i := range gates {
			gates[i].A = 0
			gates[i].B = 0
			gates[i].C = 0
			if i < len(raw) && raw[i]%2 == 1 {
				gates[i].Kind = KindLookup
				witness = append(witness, fr.NewElement(uint64(raw[i])))
				gates[i].A = len(witness) - 1
				gates[i].B = gates[i].A
				gates[i].C = gates[i].A
			}
		}

		mV := make([]fr.Element, n)
		if err := buildMultiplicities(mV, make([]uint64, n), gates, witness, tableBits); err != nil {
			// Out-of-table witness: the prover must refuse to build the
			// columns at all.
			return
		}

		// Wire column a and table column over the domain.
		aV := make([]fr.Element, n)
		tblV := make([]fr.Element, n)
		size := uint64(1) << tableBits
		for i := 0; i < n; i++ {
			aV[i] = witness[gates[i].A]
			if uint64(i) < size {
				tblV[i] = fr.NewElement(uint64(i))
			}
		}

		betaL := fr.NewElement(0xbe7a_1234)
		hV, sV := make([]fr.Element, n), make([]fr.Element, n)
		buildLogUpColumns(hV, sV, make([]fr.Element, n), make([]fr.Element, n), gates, aV, mV, tblV, betaL)

		// The telescoping invariant: S_{n-1} + H_{n-1} = Σ H_i = 0.
		var sum fr.Element
		sum.Add(&sV[n-1], &hV[n-1])
		if !sum.IsZero() {
			t.Fatalf("LogUp sum does not telescope to zero (tableBits=%d, %d lookups)",
				tableBits, len(witness)-1)
		}
		// And S must actually be the prefix sum of H.
		var acc fr.Element
		for i := 0; i < n; i++ {
			if !acc.Equal(&sV[i]) {
				t.Fatalf("S[%d] is not the prefix sum of H", i)
			}
			acc.Add(&acc, &hV[i])
		}
	})
}
