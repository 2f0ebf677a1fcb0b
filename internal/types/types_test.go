package types

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestProcIDString(t *testing.T) {
	tests := []struct {
		id   ProcID
		want string
	}{
		{NoProc, "p?"},
		{1, "p1"},
		{42, "p42"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("ProcID(%d).String() = %q, want %q", int(tt.id), got, tt.want)
		}
	}
}

func TestOptValue(t *testing.T) {
	if !Bot.IsBot() {
		t.Fatal("Bot must be ⊥")
	}
	var zero OptValue
	if !zero.IsBot() {
		t.Fatal("zero OptValue must be ⊥")
	}
	v := Some("a")
	if v.IsBot() {
		t.Fatal("Some(a) must not be ⊥")
	}
	if v.String() != "a" {
		t.Fatalf("Some(a).String() = %q", v.String())
	}
	if Bot.String() != "⊥" {
		t.Fatalf("Bot.String() = %q", Bot.String())
	}
}

func TestProcSetBasics(t *testing.T) {
	var s ProcSet
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("zero ProcSet must be empty")
	}
	if !s.Add(3) {
		t.Fatal("first Add must report true")
	}
	if s.Add(3) {
		t.Fatal("second Add of same id must report false")
	}
	s.Add(1)
	s.Add(2)
	got := s.Members()
	want := []ProcID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v (sorted)", got, want)
		}
	}
}

func TestProcSetOps(t *testing.T) {
	a := NewProcSet(1, 2, 3, 4)
	b := NewProcSet(3, 4, 5)
	sub := NewProcSet(2, 3)
	if !sub.SubsetOf(a) {
		t.Error("2,3 should be subset of 1..4")
	}
	if b.SubsetOf(a) {
		t.Error("3,4,5 is not a subset of 1..4")
	}
	c := a
	c.Add(9)
	if a.Has(9) {
		t.Error("a copy must be independent")
	}
	for _, id := range []ProcID{NoProc, -1, MaxProcs + 1} {
		if c.Add(id) || c.Has(id) {
			t.Errorf("%d is outside 1..MaxProcs but was added", id)
		}
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d after out-of-range adds, want 5", c.Len())
	}
}

// TestProcSetModel runs random operations over ids 1..MaxProcs against a
// map reference.
func TestProcSetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var s, other ProcSet
		ref := make(map[ProcID]bool)
		otherRef := make(map[ProcID]bool)
		// Small universes make SubsetOf true often enough to matter.
		universe := 1 + rng.Intn(MaxProcs)
		pick := func() ProcID { return ProcID(1 + rng.Intn(universe)) }
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0:
				id := pick()
				if got := s.Add(id); got != !ref[id] {
					t.Fatalf("trial %d: Add(%d) = %v with ref %v", trial, id, got, ref[id])
				}
				ref[id] = true
			case 1:
				id := pick()
				other.Add(id)
				otherRef[id] = true
			case 2:
				id := pick()
				if s.Has(id) != ref[id] {
					t.Fatalf("trial %d: Has(%d) = %v, want %v", trial, id, s.Has(id), ref[id])
				}
			case 3:
				want := true
				for id := range ref {
					want = want && otherRef[id]
				}
				if got := s.SubsetOf(other); got != want {
					t.Fatalf("trial %d: SubsetOf = %v, want %v", trial, got, want)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("trial %d: Len = %d, want %d", trial, s.Len(), len(ref))
			}
		}
		members := s.Members()
		if len(members) != len(ref) {
			t.Fatalf("trial %d: %d members, want %d", trial, len(members), len(ref))
		}
		for i, id := range members {
			if !ref[id] {
				t.Fatalf("trial %d: member %d not in the reference", trial, id)
			}
			if i > 0 && members[i-1] >= id {
				t.Fatalf("trial %d: Members not ascending: %v", trial, members)
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name  string
		p     Params
		botOK bool
		ok    bool
	}{
		{"classic 4-1-2", Params{N: 4, T: 1, M: 2}, false, true},
		{"n too small", Params{N: 1, T: 0, M: 1}, false, false},
		{"negative t", Params{N: 4, T: -1, M: 1}, false, false},
		{"t=n/3 rejected", Params{N: 3, T: 1, M: 1}, false, false},
		{"t just under n/3", Params{N: 7, T: 2, M: 2}, false, true},
		{"m over bound", Params{N: 4, T: 1, M: 3}, false, false},
		{"m over bound but botOK", Params{N: 4, T: 1, M: 99}, true, true},
		{"m zero", Params{N: 4, T: 1, M: 0}, false, false},
		{"t zero any m", Params{N: 2, T: 0, M: 1000}, false, true},
		{"10-3-2", Params{N: 10, T: 3, M: 2}, false, true},
		{"10-3-3 infeasible", Params{N: 10, T: 3, M: 3}, false, false},
		{"10-2-3 feasible", Params{N: 10, T: 2, M: 3}, false, true},
		{"n at MaxProcs", Params{N: MaxProcs, T: 42, M: 1}, false, true},
		{"n over MaxProcs", Params{N: MaxProcs + 1, T: 0, M: 1}, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate(tt.botOK)
			if (err == nil) != tt.ok {
				t.Errorf("Validate(%+v, botOK=%v) err=%v, want ok=%v", tt.p, tt.botOK, err, tt.ok)
			}
		})
	}
}

func TestParamsValidateNamesMaxProcs(t *testing.T) {
	err := Params{N: MaxProcs + 1, T: 1, M: 1}.Validate(false)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxProcs)) {
		t.Fatalf("Validate(n=%d) = %v, want an error naming %d", MaxProcs+1, err, MaxProcs)
	}
}

func TestParamsThresholds(t *testing.T) {
	p := Params{N: 10, T: 3, M: 2}
	if got := p.Quorum(); got != 7 {
		t.Errorf("Quorum = %d, want 7", got)
	}
	if got := p.EchoQuorum(); got != 7 { // (10+3)/2 = 6, +1 = 7 > 6.5 ✓
		t.Errorf("EchoQuorum = %d, want 7", got)
	}
	if got := p.ReadyAmplify(); got != 4 {
		t.Errorf("ReadyAmplify = %d, want 4", got)
	}
	if got := p.ReadyDeliver(); got != 7 {
		t.Errorf("ReadyDeliver = %d, want 7", got)
	}
	if got := p.MaxM(); got != 2 {
		t.Errorf("MaxM = %d, want 2", got)
	}
	procs := p.AllProcs()
	if len(procs) != 10 || procs[0] != 1 || procs[9] != 10 {
		t.Errorf("AllProcs = %v", procs)
	}
}

// TestEchoQuorumProperty checks the two facts Bracha's proof needs from the
// echo threshold, for every legal (n, t): two echo quorums intersect in a
// correct process, and a quorum is reachable with Byzantine help
// (echoQuorum ≤ n).
func TestEchoQuorumProperty(t *testing.T) {
	for n := 2; n <= 60; n++ {
		for tf := 0; 3*tf < n; tf++ {
			p := Params{N: n, T: tf, M: 1}
			q := p.EchoQuorum()
			if q > n {
				t.Fatalf("n=%d t=%d: echo quorum %d unreachable", n, tf, q)
			}
			// Two quorums of size q among n processes intersect in at
			// least 2q-n processes; that must exceed t so a correct
			// process is in the intersection.
			if 2*q-n <= tf {
				t.Fatalf("n=%d t=%d: echo quorums may intersect only in Byzantine processes", n, tf)
			}
		}
	}
}

// TestFeasibilityQuick property-checks MaxM against the defining predicate
// n−t > m·t.
func TestFeasibilityQuick(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n := int(nRaw%60) + 4
		tf := int(tRaw) % ((n - 1) / 3)
		if tf == 0 {
			return true // any m feasible; MaxM is MaxInt
		}
		p := Params{N: n, T: tf}
		m := p.MaxM()
		// m must satisfy the predicate, m+1 must not.
		return n-tf > m*tf && n-tf <= (m+1)*tf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcSetString(t *testing.T) {
	s := NewProcSet(2, 1)
	if got := s.String(); got != "[p1 p2]" {
		t.Errorf("String() = %q", got)
	}
}
