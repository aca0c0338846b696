package zkdet

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI). The same measurements, with configurable scale and formatted
// side-by-side output, are available via `go run ./cmd/zkdet-bench -all`;
// EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/bench"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/storage"
)

var benchSys = sync.OnceValue(func() *core.System {
	s, err := bench.NewSystem(1 << 13)
	if err != nil {
		panic(err)
	}
	return s
})

func benchData(n int) core.Dataset {
	d := make(core.Dataset, n)
	for i := range d {
		d[i] = fr.NewElement(uint64(i + 1))
	}
	return d
}

// BenchmarkFig5Setup measures universal SRS generation plus circuit
// preprocessing — Figure 5's series, at two scaled sizes.
func BenchmarkFig5Setup(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10} {
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Fig5Setup([]int{n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6ProofGen measures π_e, π_t and π_k proving time — Figure 6's
// three series.
func BenchmarkFig6ProofGen(b *testing.B) {
	sys := benchSys()
	for _, n := range []int{2, 8} {
		data := benchData(n)
		k := fr.NewElement(42)
		// Warm circuit setups outside the timed region.
		if _, _, _, _, err := sys.EncryptAndProve(data, k); err != nil {
			b.Fatal(err)
		}
		cs, os := data.Commit()
		if _, _, err := sys.ProveDuplication(data, cs, os); err != nil {
			b.Fatal(err)
		}
		b.Run("PiE/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := sys.EncryptAndProve(data, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("PiT/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.ProveDuplication(data, cs, os); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// π_k is data-size independent: one series entry.
	data := benchData(2)
	seller, err := core.NewSeller(sys, data, fr.NewElement(7), core.TruePredicate{})
	if err != nil {
		b.Fatal(err)
	}
	kv := fr.NewElement(99)
	hv := core.HashChallenge(kv)
	if _, _, err := seller.NegotiateKey(kv, hv); err != nil {
		b.Fatal(err)
	}
	b.Run("PiK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := seller.NegotiateKey(kv, hv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7Verify measures ZKDET verification (flat) against the ZKCP
// baseline's input-dependent verifier — Figure 7's two series.
func BenchmarkFig7Verify(b *testing.B) {
	sys := benchSys()
	for _, n := range []int{2, 8} {
		data := benchData(n)
		st, _, _, proof, err := sys.EncryptAndProve(data, fr.NewElement(5))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("ZKDET/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sys.VerifyEncryption(st, proof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 64, 256} {
		b.Run("ZKCP/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ZKCPVerifierCost(n)
			}
		})
	}
}

// BenchmarkTable1Processing measures the data-processing transformation
// proofs — Table I's rows, scaled.
func BenchmarkTable1Processing(b *testing.B) {
	sys := benchSys()
	b.Run("LogReg/4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.Table1LogReg(sys, []int{4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	cfg := transformer.Config{SeqLen: 2, DModel: 2, DK: 2, DFF: 2, DOut: 2}
	b.Run("Transformer/"+itoa(cfg.ParamCount()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.Table1Transformer(sys, []transformer.Config{cfg}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2Gas deploys and invokes every contract operation of
// Table II, reporting gas as a custom metric.
func BenchmarkTable2Gas(b *testing.B) {
	sys := benchSys()
	rows, err := bench.Table2Gas(sys)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(sanitize(row.Operation), func(b *testing.B) {
			b.ReportMetric(float64(row.Gas), "gas")
			b.ReportMetric(float64(row.PaperGas), "paper-gas")
		})
	}
}

// BenchmarkProofSize reports the constant classic proof size (§VI-B3): 774
// bytes, 9 G1 + 6 Fr behind the 6-byte header.
func BenchmarkProofSize(b *testing.B) {
	b.ReportMetric(float64(plonk.ProofSize), "bytes")
}

// BenchmarkOnChainVerification measures the gas-metered on-chain verifier
// call (§VI-C2).
func BenchmarkOnChainVerification(b *testing.B) {
	sys := benchSys()
	vk, err := sys.KeyCircuitVK()
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(2)
	seller, err := core.NewSeller(sys, data, fr.NewElement(3), core.TruePredicate{})
	if err != nil {
		b.Fatal(err)
	}
	kv := fr.NewElement(11)
	hv := core.HashChallenge(kv)
	st, proof, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		b.Fatal(err)
	}

	c := chain.New()
	if _, err := c.Deploy("verifier", contracts.NewVerifier(vk), contracts.VerifierCodeSize); err != nil {
		b.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	args := contracts.VerifyArgs(proof, []fr.Element{st.KC, st.KeyCommitment, st.HV})
	var lastGas uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := c.ProduceBlock([]chain.Transaction{{
			From: alice, Contract: "verifier", Method: "verify",
			Args: args, Nonce: c.NonceOf(alice),
		}}).Outcomes[0]
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		if o.Receipt.Err != nil {
			b.Fatal(o.Receipt.Err)
		}
		lastGas = o.Receipt.GasUsed
	}
	b.ReportMetric(float64(lastGas), "gas")
}

// BenchmarkCeremonyContribution measures one Powers-of-Tau contribution.
func BenchmarkCeremonyContribution(b *testing.B) {
	cer, err := kzg.NewCeremony(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cer.Contribute([]byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '(' || r == ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkChainThroughput measures raw transaction throughput of the chain
// substrate (mint+transfer mix) — the abstract's "high throughput despite
// large data volumes" claim rests on the chain carrying only metadata.
func BenchmarkChainThroughput(b *testing.B) {
	c := chain.New()
	if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
		b.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	uri := make([]byte, 32)
	commit := make([]byte, 64)
	// Blocks of 100 mint+transfer pairs: mint i is token i+1 and its owner
	// hands it on in the same block.
	var body []chain.Transaction
	nonce, id := uint64(0), uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id++
		body = append(body,
			chain.Transaction{From: alice, Contract: contracts.DataNFTName, Method: "mint",
				Args: contracts.EncodeArgs(uri, commit), Nonce: nonce},
			chain.Transaction{From: alice, Contract: contracts.DataNFTName, Method: "transfer",
				Args: contracts.EncodeArgs(contracts.U64(id), bob[:]), Nonce: nonce + 1})
		nonce += 2
		if len(body) == 200 || i == b.N-1 {
			for _, o := range c.ProduceBlock(body).Outcomes {
				if o.Err != nil || o.Receipt.Err != nil {
					b.Fatal(o.Err, o.Receipt)
				}
			}
			body = body[:0]
		}
	}
	b.ReportMetric(float64(b.N*2)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkStorageThroughput measures the blob store's put/get throughput
// for ciphertext blobs.
func BenchmarkStorageThroughput(b *testing.B) {
	store := storage.NewStore()
	blob := make([]byte, 32*1024)
	for i := range blob {
		blob[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob[0] = byte(i)
		blob[1] = byte(i >> 8)
		uri, err := store.Put("bench", blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Get(uri); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(2 * len(blob)))
}
