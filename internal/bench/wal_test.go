package bench

import (
	"fmt"
	"testing"
)

// TestWALAppendModes checks the append experiment at CI-affordable sizes:
// every mode moves the full record count, and the durable modes actually
// fsync while nosync never does. The Benchmark* variants are the
// `make bench-wal` entry points at full scale.
func TestWALAppendModes(t *testing.T) {
	for _, mode := range []string{"sync-each", "group-commit", "nosync"} {
		row, err := WALAppend(t.TempDir(), mode, 4, 64, 256)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if row.Records != 64 {
			t.Fatalf("%s: moved %d records, want 64", mode, row.Records)
		}
		if row.RecPerSec <= 0 {
			t.Fatalf("%s: non-positive throughput: %+v", mode, row)
		}
		switch mode {
		case "nosync":
			if row.Syncs != 0 {
				t.Fatalf("nosync issued %d fsyncs", row.Syncs)
			}
		default:
			if row.Syncs == 0 {
				t.Fatalf("%s issued no fsyncs", mode)
			}
		}
	}
}

// TestWALAppendRejectsUnknownMode pins the mode validation.
func TestWALAppendRejectsUnknownMode(t *testing.T) {
	if _, err := WALAppend(t.TempDir(), "eventually", 1, 1, 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestDurableExecCompareShape runs the durable-vs-memory experiment small:
// three rows, memory as the 1.0x baseline, and the durable run must have
// gone through the log (appends acknowledged by fsync).
func TestDurableExecCompareShape(t *testing.T) {
	dirs := tempDirSeq(t)
	rows, err := DurableExecCompare(dirs, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].Mode != "memory" || rows[0].Slowdown != 1.0 {
		t.Fatalf("baseline row malformed: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Txs != rows[0].Txs {
			t.Fatalf("tx volumes diverge: %+v vs %+v", r, rows[0])
		}
		if r.TxPerSec <= 0 {
			t.Fatalf("%s: non-positive throughput", r.Mode)
		}
	}
	if rows[1].Syncs == 0 {
		t.Fatalf("durable run never fsynced: %+v", rows[1])
	}
}

// TestRecoveryTimeShape checks both recovery shapes: WAL-only replay walks
// every sealed block, while a mid-run checkpoint shifts the prefix into a
// snapshot and leaves only the tail for replay.
func TestRecoveryTimeShape(t *testing.T) {
	walOnly, err := RecoveryTime(t.TempDir(), 6, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if walOnly.SnapshotHeight != 0 {
		t.Fatalf("WAL-only run restored a snapshot: %+v", walOnly)
	}
	if walOnly.WALBlocks != walOnly.Blocks {
		t.Fatalf("WAL-only run replayed %d of %d blocks", walOnly.WALBlocks, walOnly.Blocks)
	}

	snap, err := RecoveryTime(t.TempDir(), 6, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SnapshotHeight == 0 {
		t.Fatalf("checkpointed run ignored its snapshot: %+v", snap)
	}
	if snap.WALBlocks >= snap.Blocks {
		t.Fatalf("checkpointed run replayed the whole chain: %+v", snap)
	}
}

// tempDirSeq adapts testing's TempDir to the sweeps' fresh-dir-per-call
// contract.
func tempDirSeq(t *testing.T) func() string {
	return func() string { return t.TempDir() }
}

func benchDirSeq(b *testing.B) func() string {
	return func() string { return b.TempDir() }
}

// BenchmarkWALAppend reports raw WAL append throughput per (mode × writers)
// cell at 4 KiB payloads; see EXPERIMENTS.md §Durability layer for recorded
// numbers.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []string{"sync-each", "group-commit", "nosync"} {
		for _, writers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("mode=%s/writers=%d", mode, writers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					row, err := WALAppend(b.TempDir(), mode, writers, 2048, 4096)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(row.RecPerSec, "rec/s")
					b.ReportMetric(row.MBPerSec, "MB/s")
					b.ReportMetric(float64(row.Syncs), "fsyncs")
				}
			})
		}
	}
}

// BenchmarkDurableExec reports the durable sealing slowdown against the
// in-memory chain on the identical conflict-light workload — the engine's
// within-2x acceptance criterion; see EXPERIMENTS.md §Durability layer.
func BenchmarkDurableExec(b *testing.B) {
	for _, clients := range []int{100, 1000} {
		rounds := 4096 / clients
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := DurableExecCompare(benchDirSeq(b), clients, rounds)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					b.ReportMetric(r.TxPerSec, r.Mode+"-tx/s")
				}
				b.ReportMetric(rows[1].Slowdown, "durable-slowdown-x")
			}
		})
	}
}

// BenchmarkRecovery reports crash-recovery time vs chain length, WAL-only
// and snapshot-assisted; see EXPERIMENTS.md §Durability layer.
func BenchmarkRecovery(b *testing.B) {
	for _, checkpoint := range []bool{false, true} {
		for _, blocks := range []int{16, 64, 256} {
			name := fmt.Sprintf("checkpoint=%v/blocks=%d", checkpoint, blocks)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					row, err := RecoveryTime(b.TempDir(), blocks, 100, checkpoint)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(row.Seconds*1000, "recovery-ms")
					b.ReportMetric(float64(row.WALBlocks), "wal-blocks")
				}
			})
		}
	}
}
