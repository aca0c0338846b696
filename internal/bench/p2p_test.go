package bench

import (
	"fmt"
	"testing"
)

// The experiment smoke tests keep the p2p row functions honest at the
// small scale's sizes; the Benchmark* variants are the `make bench-p2p`
// entry points, at the medium scale's sizes and with per-operation metrics.

func TestGossipPropagationShape(t *testing.T) {
	rows, err := GossipPropagation(5, []int{1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Propagation <= 0 {
			t.Fatalf("fanout %d reported non-positive propagation %v", r.Fanout, r.Propagation)
		}
	}
	// Wider fanout must not cost fewer messages: each accepting hop
	// forwards to more peers.
	if rows[1].Messages < rows[0].Messages {
		t.Fatalf("fanout 4 sent %.0f msgs/tx, fanout 1 sent %.0f", rows[1].Messages, rows[0].Messages)
	}
}

func TestChainSyncShape(t *testing.T) {
	rows, err := ChainSync([]int{4, 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SyncTime <= 0 || r.BlocksPerS <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

// BenchmarkGossipPropagation reports the mean time for one transaction to
// reach every member of the cluster, per fanout.
func BenchmarkGossipPropagation(b *testing.B) {
	sc := Scales["medium"]
	for _, fanout := range sc.Fanouts {
		b.Run(fmt.Sprintf("nodes=%d/fanout=%d", sc.GossipNodes, fanout), func(b *testing.B) {
			rows, err := GossipPropagation(sc.GossipNodes, []int{fanout}, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rows[0].Propagation.Nanoseconds()), "ns/propagation")
			b.ReportMetric(rows[0].Messages, "msgs/tx")
		})
	}
}

// BenchmarkChainSync reports how long a fresh node takes to catch up on a
// chain of the given length.
func BenchmarkChainSync(b *testing.B) {
	sc := Scales["medium"]
	for _, length := range sc.SyncLengths {
		b.Run(fmt.Sprintf("blocks=%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := ChainSync([]int{length}, sc.SyncTxs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].BlocksPerS, "blocks/s")
			}
		})
	}
}
