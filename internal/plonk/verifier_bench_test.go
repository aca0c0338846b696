package plonk

import (
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/transcript"
)

// BenchmarkOpeningMSMSplit splits openingMSM, the field-side half of a
// block's proof check, into its pieces on a custom-gate proof and a
// lookup + custom one: bindTranscript (re-absorbing the key), the whole
// transcript replay it starts, lagrangePrefix's inversion over the public
// inputs, linearize, and one quotientNumerator (linearize evaluates it once
// plus once per linear column). Each is reported in ns beside the whole.
func BenchmarkOpeningMSMSplit(b *testing.B) {
	for _, name := range []string{"poseidon", "lookup"} {
		cs, witness := goldenCircuit(b, name)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			b.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			b.Fatal(err)
		}
		public := witness[:cs.nbPublic]
		sh := vk.shape()
		replay := func() (*challenges, fr.Element) {
			tr := transcript.New("zkdet/plonk")
			bindTranscript(tr, vk, public)
			ch := proof.absorbRound1(tr)
			ch.k1, ch.k2, ch.mds = vk.K1, vk.K2, vk.MDS
			proof.absorbRound2(tr, ch)
			zeta := proof.absorbRound3(tr)
			proof.absorbRound4(tr)
			tr.AppendPoint("w_zeta", &proof.WZeta)
			tr.AppendPoint("w_zeta_omega", &proof.WZetaOmega)
			tr.ChallengeScalar("u")
			return ch, zeta
		}
		ch, zeta := replay()
		_, lagOmega, _, err := vk.verifierCache()
		if err != nil {
			b.Fatal(err)
		}
		var zh fr.Element
		zh.ExpUint64(&zeta, vk.N)
		one := fr.One()
		zh.Sub(&zh, &one)
		lag := lagrangePrefix(lagOmega, vk.N, &zeta, &zh)
		var pi fr.Element
		pv := proof.zetaPoint(&zeta, &lag[0], &pi)
		pieces := []struct {
			name string
			run  func()
		}{
			{"openingMSM", func() {
				if _, err := openingMSM(vk, proof, public); err != nil {
					b.Fatal(err)
				}
			}},
			{"bindTranscript", func() { bindTranscript(transcript.New("zkdet/plonk"), vk, public) }},
			{"replay", func() { replay() }},
			{"lagrangePrefix", func() { lagrangePrefix(lagOmega, vk.N, &zeta, &zh) }},
			{"linearize", func() { linearize(pv, ch, sh) }},
			{"quotientNumerator", func() { quotientNumerator(&pv, ch, sh) }},
		}
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(len(public)), "publics")
			for _, p := range pieces {
				start := time.Now()
				for i := 0; i < b.N; i++ {
					p.run()
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/"+p.name)
			}
		})
	}
}
