package kzg

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poly"
)

// tableTestLens are the commitment lengths the window-table tests use: both
// sides of the table's shortest MSM (8 points), and the lengths π_e/π_ct
// (N = 512), π_k (N = 1 536) and a 3 072-row key commit to.
var tableTestLens = []int{7, 8, 9, 515, 1539, 3075}

// tableWarmCommits is more commitments than an SRS makes on G1MSM before
// it builds its window table (bn254's msmTableGrowAfter, 16): a test that
// makes them first commits on the table afterwards.
const tableWarmCommits = 20

// warmTable grows srs's window table to at least n points by committing to
// a polynomial of length n that often.
func warmTable(t testing.TB, srs *SRS, n int) {
	t.Helper()
	p := randPoly(n)
	for i := 0; i < tableWarmCommits; i++ {
		if _, err := Commit(srs, p); err != nil {
			t.Fatal(err)
		}
	}
}

// g1MSMCommit is the commitment through the generic MSM, the oracle of the
// window-table tests.
func g1MSMCommit(t testing.TB, srs *SRS, p poly.Polynomial) Commitment {
	t.Helper()
	c, err := bn254.G1MSM(srs.G1[:len(p)], p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCommitTableMatchesG1MSM checks Commit against G1MSM over the same SRS
// prefix at every test length, growing the table in steps to each length
// and then reading it at lengths it covers already.
func TestCommitTableMatchesG1MSM(t *testing.T) {
	srs := testSRS(t, 3076)
	for _, n := range append(append([]int{}, tableTestLens...), 1539, 515, 8) {
		warmTable(t, srs, n)
		p := randPoly(n)
		got, err := Commit(srs, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := g1MSMCommit(t, srs, p); !got.Equal(&want) {
			t.Fatalf("n=%d: Commit differs from G1MSM", n)
		}
	}
}

// TestCommitSRSWithInfinity commits over an SRS that SRSFromBytes accepted
// although all its powers but the first are the point at infinity (τ = 0
// passes the power-chain check): the table's multiples of infinity stay
// infinity and must never reach a bucket.
func TestCommitSRSWithInfinity(t *testing.T) {
	zero := fr.Zero()
	built, err := NewSRSFromSecret(600, &zero)
	if err != nil {
		t.Fatal(err)
	}
	srs, err := SRSFromBytes(built.Bytes())
	if err != nil {
		t.Fatalf("SRSFromBytes refused the τ = 0 SRS: %v", err)
	}
	if !srs.G1[1].IsInfinity() {
		t.Fatal("the τ = 0 SRS holds no point at infinity")
	}
	warmTable(t, srs, 515)
	for _, n := range []int{9, 515} {
		p := randPoly(n)
		got, err := Commit(srs, p)
		if err != nil {
			t.Fatal(err)
		}
		g := bn254.G1Generator()
		if want := bn254.G1ScalarMul(&g, &p[0]); !got.Equal(&want) {
			t.Fatalf("n=%d: commitment over the τ = 0 SRS is not p(0)·G", n)
		}
	}
}

// TestCommitAcrossGOMAXPROCS checks that the table pass, split into as
// many chunks as GOMAXPROCS was when the table grew, gives the same
// commitments on one and on two workers, on a table built at either count.
func TestCommitAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ps := make([]poly.Polynomial, len(tableTestLens))
	for i, n := range tableTestLens {
		ps[i] = randPoly(n)
	}
	var want []Commitment
	for _, built := range []int{1, 2} {
		runtime.GOMAXPROCS(built)
		srs := testSRS(t, 3076)
		warmTable(t, srs, 3075)
		if want == nil {
			for _, p := range ps {
				want = append(want, g1MSMCommit(t, srs, p))
			}
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for i, p := range ps {
				got, err := Commit(srs, p)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(&want[i]) {
					t.Fatalf("table built at GOMAXPROCS=%d, used at %d, n=%d: commitment differs", built, procs, len(p))
				}
			}
		}
	}
}

// TestCommitConcurrentWhileTableGrows commits from several goroutines at
// once on a fresh SRS, each walking the test lengths in its own order
// three times, so commitments run on G1MSM, on the table, and while
// another one extends the table; run it with -race.
func TestCommitConcurrentWhileTableGrows(t *testing.T) {
	srs := testSRS(t, 3076)
	ps := make([]poly.Polynomial, len(tableTestLens))
	want := make([]Commitment, len(ps))
	for i, n := range tableTestLens {
		ps[i] = randPoly(n)
		want[i] = g1MSMCommit(t, srs, ps[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(ps); k++ {
				i := (g + k) % len(ps)
				got, err := Commit(srs, ps[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(&want[i]) {
					t.Errorf("goroutine %d: concurrent commitment of length %d differs from G1MSM", g, len(ps[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}

// commitWarmBytes bounds what one warm Commit may allocate: the table, its
// digit stream and its bucket scratch are all reused, which leaves the
// worker goroutines and their closures.
const commitWarmBytes = 1 << 10

// TestCommitSteadyStateAllocation guards the table-owned scratch: once the
// table covers a length, a Commit of that length allocates almost nothing.
// The quietest of a few calls is checked, as in the MSM's own guard.
func TestCommitSteadyStateAllocation(t *testing.T) {
	srs := testSRS(t, 1540)
	warmTable(t, srs, 1539)
	for _, n := range []int{515, 1539} {
		p := randPoly(n)
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 4; i++ {
			runtime.ReadMemStats(&before)
			if _, err := Commit(srs, p); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
		}
		if least > commitWarmBytes {
			t.Fatalf("a warm Commit of %d points allocated %d bytes, more than %d", n, least, commitWarmBytes)
		}
		t.Logf("warm Commit of %d points: %d bytes allocated", n, least)
	}
}

// TestCeremonySRSUnmovedByLaterContribution checks that the SRS a ceremony
// releases is its own: a contribution after the release rewrites the
// ceremony's powers, but the released SRS still verifies and still commits
// to the same points, through a table built before the contribution.
func TestCeremonySRSUnmovedByLaterContribution(t *testing.T) {
	cer, err := NewCeremony(600)
	if err != nil {
		t.Fatal(err)
	}
	if err := cer.Contribute([]byte("alice")); err != nil {
		t.Fatal(err)
	}
	srs, err := cer.SRS()
	if err != nil {
		t.Fatal(err)
	}
	warmTable(t, srs, 515)
	p := randPoly(515)
	before, err := Commit(srs, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := cer.Contribute([]byte("bob")); err != nil {
		t.Fatal(err)
	}
	if err := VerifySRS(srs); err != nil {
		t.Fatalf("the released SRS no longer verifies: %v", err)
	}
	after, err := Commit(srs, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := g1MSMCommit(t, srs, p); !after.Equal(&before) || !after.Equal(&want) {
		t.Fatal("a later contribution moved the released SRS's commitment")
	}
	next, err := cer.SRS()
	if err != nil {
		t.Fatal(err)
	}
	if next.G1[1].Equal(&srs.G1[1]) {
		t.Fatal("the second contribution did not move the ceremony's SRS")
	}
}
