package transcript

import (
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

func TestDeterminism(t *testing.T) {
	build := func() fr.Element {
		tr := New("test")
		tr.AppendBytes("msg", []byte("hello"))
		s := fr.NewElement(42)
		tr.AppendScalar("scalar", &s)
		g := bn254.G1Generator()
		tr.AppendPoint("point", &g)
		return tr.ChallengeScalar("c")
	}
	c1, c2 := build(), build()
	if !c1.Equal(&c2) {
		t.Fatal("same transcript, different challenges")
	}
}

func TestDomainSeparation(t *testing.T) {
	t1 := New("protocol-a")
	t2 := New("protocol-b")
	c1 := t1.ChallengeScalar("c")
	c2 := t2.ChallengeScalar("c")
	if c1.Equal(&c2) {
		t.Fatal("different protocols, same challenge")
	}
}

func TestMessageBinding(t *testing.T) {
	t1 := New("p")
	t1.AppendBytes("m", []byte("one"))
	t2 := New("p")
	t2.AppendBytes("m", []byte("two"))
	c1 := t1.ChallengeScalar("c")
	c2 := t2.ChallengeScalar("c")
	if c1.Equal(&c2) {
		t.Fatal("different messages, same challenge")
	}
}

func TestLabelBinding(t *testing.T) {
	t1 := New("p")
	t1.AppendBytes("label-a", []byte("x"))
	t2 := New("p")
	t2.AppendBytes("label-b", []byte("x"))
	c1 := t1.ChallengeScalar("c")
	c2 := t2.ChallengeScalar("c")
	if c1.Equal(&c2) {
		t.Fatal("different labels, same challenge")
	}
}

func TestChallengeChaining(t *testing.T) {
	// A challenge must feed back into the transcript: two consecutive
	// challenges differ, and inserting a message between them changes the
	// second.
	tr := New("p")
	c1 := tr.ChallengeScalar("c")
	c2 := tr.ChallengeScalar("c")
	if c1.Equal(&c2) {
		t.Fatal("consecutive challenges repeat")
	}

	ta := New("p")
	ta.ChallengeScalar("c")
	ta.AppendBytes("extra", []byte("x"))
	ca := ta.ChallengeScalar("c")
	if ca.Equal(&c2) {
		t.Fatal("inserted message did not affect later challenge")
	}
}

func TestAppendScalars(t *testing.T) {
	mk := func(vals ...uint64) fr.Element {
		tr := New("p")
		ss := make([]fr.Element, len(vals))
		for i, v := range vals {
			ss[i] = fr.NewElement(v)
		}
		tr.AppendScalars("batch", ss)
		return tr.ChallengeScalar("c")
	}
	if c1, c2 := mk(1, 2), mk(2, 1); c1.Equal(&c2) {
		t.Fatal("order-insensitive scalar absorption")
	}
	// Boundary shifting must not collide: [12, 3] vs [1, 23].
	if c1, c2 := mk(12, 3), mk(1, 23); c1.Equal(&c2) {
		t.Fatal("scalar boundaries ambiguous")
	}
}

func TestChallengeDistribution(t *testing.T) {
	// Challenges across distinct transcripts should not collide.
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tr := New("p")
		s := fr.NewElement(uint64(i))
		tr.AppendScalar("i", &s)
		c := tr.ChallengeScalar("c")
		key := c.String()
		if seen[key] {
			t.Fatal("challenge collision")
		}
		seen[key] = true
	}
}

// TestAppendScalarAllocatesNothing: once the preimage buffer has grown, a
// scalar absorb allocates nothing.
func TestAppendScalarAllocatesNothing(t *testing.T) {
	tr := New("p")
	s := fr.NewElement(7)
	tr.AppendScalar("s", &s)
	if n := testing.AllocsPerRun(100, func() { tr.AppendScalar("s", &s) }); n != 0 {
		t.Fatalf("warm AppendScalar allocated %v times, want 0", n)
	}
}
