package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// encryptAndProveBytes is what one warm EncryptAndProve of a four-entry
// dataset allocates once plonk.Prove runs on buffers its key owns and
// circuit.Builder.Compile sizes the constraint system once (647 408–647 792
// B on a 2-vCPU host): the circuit build, the compiled system and witness,
// and the proof. It read 1 789 088 B when each proof allocated its own
// wire, coset and fold buffers (0.99 MB of it in Prove) and the gate slice
// grew by append, and 3 060 000 B on 768 rows with MiMC-CTR. The quotient's
// 6n = 3 072 = 3·2^10-point coset is not transformed in place; its buffer
// comes from the domain's pool, and one allocated per call would add about
// 0.6 MB here.
const encryptAndProveBytes = 647_600

// TestEncryptAndProveSteadyStateAllocation is TestProveSteadyStateAllocation
// (internal/plonk) on the shape an exchange now proves: the repository
// benchmark bounds alloc_mb_per_op to 3 %, and three of the four proofs of a
// public exchange are this size. Garbage collection is off while it runs: a
// collection drops the pools' idle scratch, and how much of it a later proof
// must allocate again depends on scheduling, not on the code under test
// (allocation is counted with or without collections). The quietest of seven
// warm proofs is checked, because the MSMs' scratch reaches its full size
// over the first few.
func TestEncryptAndProveSteadyStateAllocation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// Every fan-out hands each worker its own scratch, so bytes per proof
	// grow with the width (4.77 MB at 1, 5.51 MB at 8): hold the width the
	// figure was taken at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sys := testSys()
	data, key := smallData(4), fr.NewElement(7)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&before)
		if _, _, _, _, err := sys.EncryptAndProve(data, key); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if limit := uint64(encryptAndProveBytes + encryptAndProveBytes/10); least > limit {
		t.Fatalf("a warm EncryptAndProve (n = 4) allocated %d bytes, more than %d + 10 %%", least, encryptAndProveBytes)
	}
	t.Logf("warm EncryptAndProve (n = 4): %d bytes allocated (recorded: %d)", least, encryptAndProveBytes)
}
