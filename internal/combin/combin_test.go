package combin

import (
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestBinomialSmall(t *testing.T) {
	tests := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{4, 3, 4}, {7, 5, 21}, {10, 7, 120},
		{13, 9, 715}, {5, 2, 10}, {6, 3, 20},
		{52, 5, 2598960},
		{3, 5, 0}, // k > n
	}
	for _, tt := range tests {
		got, ok := Binomial(tt.n, tt.k)
		if !ok {
			t.Errorf("Binomial(%d,%d) overflowed", tt.n, tt.k)
			continue
		}
		if got != tt.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialMatchesBig(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			got, ok := Binomial(n, k)
			if !ok {
				t.Fatalf("Binomial(%d,%d) should not overflow", n, k)
			}
			want := BigBinomial(n, k)
			if !want.IsUint64() || want.Uint64() != got {
				t.Fatalf("Binomial(%d,%d) = %d, want %v", n, k, got, want)
			}
		}
	}
}

func TestBinomialOverflow(t *testing.T) {
	// C(200,100) greatly exceeds uint64.
	if _, ok := Binomial(200, 100); ok {
		t.Fatal("expected overflow for C(200,100)")
	}
}

func TestUnrankEnumerationOrder(t *testing.T) {
	// All C(5,3)=10 subsets in lexicographic order.
	want := [][]types.ProcID{
		{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {1, 3, 4}, {1, 3, 5},
		{1, 4, 5}, {2, 3, 4}, {2, 3, 5}, {2, 4, 5}, {3, 4, 5},
	}
	for i, w := range want {
		got, err := Unrank(5, 3, big.NewInt(int64(i)))
		if err != nil {
			t.Fatalf("Unrank(5,3,%d): %v", i, err)
		}
		if len(got) != len(w) {
			t.Fatalf("Unrank(5,3,%d) = %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("Unrank(5,3,%d) = %v, want %v", i, got, w)
			}
		}
	}
}

func TestUnrankErrors(t *testing.T) {
	if _, err := Unrank(5, 3, big.NewInt(10)); err == nil {
		t.Error("rank = C(n,k) must be rejected")
	}
	if _, err := Unrank(5, 3, big.NewInt(-1)); err == nil {
		t.Error("negative rank must be rejected")
	}
	if _, err := Unrank(5, 6, big.NewInt(0)); err == nil {
		t.Error("k > n must be rejected")
	}
}

// TestRankUnrankRoundTrip property-checks Rank∘Unrank = id across sizes.
func TestRankUnrankRoundTrip(t *testing.T) {
	f := func(nRaw, kRaw, rRaw uint16) bool {
		n := int(nRaw%20) + 1
		k := int(kRaw)%n + 1
		total := BigBinomial(n, k)
		rank := new(big.Int).Mod(new(big.Int).SetUint64(uint64(rRaw)), total)
		comb, err := Unrank(n, k, rank)
		if err != nil {
			return false
		}
		// ascending, within range, distinct
		prev := types.ProcID(0)
		for _, e := range comb {
			if e <= prev || int(e) > n {
				return false
			}
			prev = e
		}
		return Rank(n, comb).Cmp(rank) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoundPlanCoord(t *testing.T) {
	rp, err := NewRoundPlan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantCoords := []types.ProcID{1, 2, 3, 4, 1, 2, 3, 4, 1}
	for i, w := range wantCoords {
		if got := rp.Coord(types.Round(i + 1)); got != w {
			t.Errorf("Coord(%d) = %v, want %v", i+1, got, w)
		}
	}
	if rp.Coord(0) != types.NoProc {
		t.Error("Coord(0) must be NoProc")
	}
}

func TestRoundPlanFRotation(t *testing.T) {
	// n=4, fsize=3 → α=4 combinations. F must stay constant for n=4
	// consecutive rounds, then advance, and wrap after α blocks.
	rp, err := NewRoundPlan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rp.AlphaUint64() != 4 {
		t.Fatalf("alpha = %d, want 4", rp.AlphaUint64())
	}
	// Rounds 1..4 use F index 0; rounds 5..8 index 1; ... rounds 17..20
	// wrap back to index 0.
	for r := types.Round(1); r <= 20; r++ {
		wantIdx := int64((int64(r)+3)/4-1) % 4
		if got := rp.FIndex(r).Int64(); got != wantIdx {
			t.Errorf("FIndex(%d) = %d, want %d", r, got, wantIdx)
		}
	}
	f1 := rp.F(1)
	f17 := rp.F(17)
	for i := range f1 {
		if f1[i] != f17[i] {
			t.Errorf("F must wrap: F(1)=%v F(17)=%v", f1, f17)
		}
	}
}

func TestRoundPlanEveryPairOccurs(t *testing.T) {
	// Within α·n rounds, every (coordinator, F) pair must occur: that is
	// the crux of the paper's termination bound.
	rp, err := NewRoundPlan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	total := int(rp.WorstCaseRounds()) // 16
	for r := 1; r <= total; r++ {
		key := rp.Coord(types.Round(r)).String() + "|" + types.NewProcSet(rp.F(types.Round(r))...).String()
		seen[key] = true
	}
	if len(seen) != 16 {
		t.Fatalf("expected all 16 (coord,F) pairs within %d rounds, saw %d", total, len(seen))
	}
}

func TestFirstGoodRound(t *testing.T) {
	rp, err := NewRoundPlan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	correct := types.NewProcSet(1, 2, 3) // p4 faulty
	// coordinator must be p2, F must contain {1,2} and avoid p4.
	r, ok := rp.FirstGoodRound(1, 2, types.NewProcSet(1, 2), correct)
	if !ok {
		t.Fatal("expected a good round to exist")
	}
	if rp.Coord(r) != 2 {
		t.Fatalf("round %d has coord %v", r, rp.Coord(r))
	}
	f := rp.FSet(r)
	if !types.NewProcSet(1, 2).SubsetOf(f) || !f.SubsetOf(correct) {
		t.Fatalf("round %d has F=%v", r, f)
	}
	// Monotonic: searching from later must give a later (or equal) round.
	r2, ok := rp.FirstGoodRound(r+1, 2, types.NewProcSet(1, 2), correct)
	if !ok || r2 <= r {
		t.Fatalf("FirstGoodRound(from=%d) = %d, ok=%v", r+1, r2, ok)
	}
	// Impossible requirement: F ⊆ {1} but |F| = 3.
	if _, ok := rp.FirstGoodRound(1, 2, types.NewProcSet(1), types.NewProcSet(1)); ok {
		t.Fatal("impossible requirement must report !ok")
	}
}

func TestRoundPlanK(t *testing.T) {
	// §5.4: with k = t the F sets have size n−t+k = n → α = 1 → bound n.
	n, tt := 7, 2
	rp, err := NewRoundPlan(n, n-tt+tt)
	if err != nil {
		t.Fatal(err)
	}
	if rp.AlphaUint64() != 1 {
		t.Fatalf("alpha = %d, want 1 for k=t", rp.AlphaUint64())
	}
	if rp.WorstCaseRounds() != uint64(n) {
		t.Fatalf("worst case = %d, want %d", rp.WorstCaseRounds(), n)
	}
	// k=0 basic case: α = C(7,5) = 21, bound 147.
	rp0, err := NewRoundPlan(n, n-tt)
	if err != nil {
		t.Fatal(err)
	}
	if rp0.WorstCaseRounds() != 147 {
		t.Fatalf("worst case = %d, want 147", rp0.WorstCaseRounds())
	}
}

func TestNewRoundPlanErrors(t *testing.T) {
	if _, err := NewRoundPlan(0, 1); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := NewRoundPlan(4, 0); err == nil {
		t.Error("fsize=0 must fail")
	}
	if _, err := NewRoundPlan(4, 5); err == nil {
		t.Error("fsize>n must fail")
	}
}

// TestRoundPlanUint64MatchesBig: the uint64 path gives the F sets and
// indexes the math/big path gives, across plans that take it and one
// (n=100, F of size 67) whose α does not fit and falls back.
func TestRoundPlanUint64MatchesBig(t *testing.T) {
	for _, c := range []struct{ n, fsize int }{{4, 3}, {7, 5}, {7, 7}, {13, 9}, {31, 21}, {62, 31}, {100, 67}} {
		rp, err := NewRoundPlan(c.n, c.fsize)
		if err != nil {
			t.Fatal(err)
		}
		if wantBig := c.n == 100; (rp.alpha != nil) != wantBig {
			t.Fatalf("n=%d fsize=%d: big fallback %v, want %v", c.n, c.fsize, rp.alpha != nil, wantBig)
		}
		for _, r := range []types.Round{1, 2, types.Round(c.n), types.Round(c.n) + 1, 1000, 1 << 40} {
			want, err := Unrank(c.n, c.fsize, rp.FIndex(r))
			if err != nil {
				t.Fatal(err)
			}
			if got := rp.F(r); !slices.Equal(got, want) {
				t.Fatalf("n=%d fsize=%d: F(%d) = %v, want %v", c.n, c.fsize, r, got, want)
			}
			if got := rp.FSet(r); got != types.NewProcSet(want...) {
				t.Fatalf("n=%d fsize=%d: FSet(%d) = %v, want %v", c.n, c.fsize, r, got, want)
			}
		}
	}
}

// TestFSetAllocatesNothing: the per-round F-set lookup of an EA round is
// allocation-free on the uint64 path.
func TestFSetAllocatesNothing(t *testing.T) {
	rp, err := NewRoundPlan(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := types.Round(1)
	if allocs := testing.AllocsPerRun(100, func() { _ = rp.FSet(r); r += 7 }); allocs != 0 {
		t.Fatalf("FSet allocates %v times per call", allocs)
	}
}
