package core

import (
	"math"
	"runtime"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// encryptAndProveBytes is what one warm EncryptAndProve of a four-entry
// dataset allocated when π_e, a custom-gate proof without lookups, stopped
// carrying the idle LogUp columns M, H, S (measured at PR 25 on a 2-vCPU
// host, 3 050 216–3 111 784; 3 940 000 before, when the 768-row domain and
// 6 144-point coset arrived in PR 24; 4 810 000 before that, and 24 748 256
// for the classic 5 667-gate circuit on its 8 192-row domain). The 3·2^k
// transform is not in place; its buffer comes from the domain's pool, and
// one allocated per call would add about 2 MB here.
const encryptAndProveBytes = 3_060_000

// TestEncryptAndProveSteadyStateAllocation is TestProveSteadyStateAllocation
// (internal/plonk) on the shape an exchange now proves: the repository
// benchmark bounds alloc_mb_per_op to 3 %, and three of the four proofs of a
// public exchange are this size. The quietest of three proofs is checked,
// because a garbage collection may empty the MSM's pool under any single one.
func TestEncryptAndProveSteadyStateAllocation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// Every fan-out hands each worker its own scratch, so bytes per proof
	// grow with the width (4.77 MB at 1, 5.51 MB at 8): hold the width the
	// figure was taken at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys := testSys()
	data, key := smallData(4), fr.NewElement(7)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 4; i++ {
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
