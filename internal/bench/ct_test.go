package bench

import (
	"fmt"
	"testing"
)

// TestCTSweepShapes smoke-tests the confidential-transfer benchmark: every
// measured quantity must be positive and the proof must round-trip the
// expected wire size for its shape.
func TestCTSweepShapes(t *testing.T) {
	rows, err := CTSweep(benchSys(), [][2]int{{0, 1}, {1, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ProveSeconds <= 0 || r.VerifySeconds <= 0 || r.SigmaSeconds <= 0 || r.BatchPerProofSecs <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
		if r.ProofBytes == 0 || r.SigmaGas == 0 || r.BatchN < 2 {
			t.Fatalf("bad row %+v", r)
		}
		// The sigma screen must be far cheaper than full verification: it
		// is what gossip runs per transaction.
		if r.SigmaSeconds > r.VerifySeconds {
			t.Fatalf("sigma screen slower than full verify: %+v", r)
		}
	}
}

// BenchmarkCTTransfer reports ms/proof for proving, verifying and
// batch-verifying confidential transfers of representative shapes.
func BenchmarkCTTransfer(b *testing.B) {
	for _, shape := range [][2]int{{0, 1}, {1, 2}, {2, 2}} {
		b.Run(fmt.Sprintf("in=%d/out=%d", shape[0], shape[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := CTSweep(benchSys(), [][2]int{shape}, 4)
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(r.ProveSeconds*1000, "prove-ms")
				b.ReportMetric(r.VerifySeconds*1000, "verify-ms")
				b.ReportMetric(r.SigmaSeconds*1000, "sigma-ms")
				b.ReportMetric(r.BatchPerProofSecs*1000, "batch-ms/pi_ct")
			}
		})
	}
}
