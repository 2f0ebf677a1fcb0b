package combin

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// pascal is the oracle's Pascal triangle in math/big: pascal()[n][k] =
// C(n, k) for every 0 ≤ k ≤ n ≤ MaxProcs.
var pascal = sync.OnceValue(func() [][]*big.Int {
	rows := make([][]*big.Int, types.MaxProcs+1)
	for n := range rows {
		rows[n] = make([]*big.Int, n+1)
		rows[n][0], rows[n][n] = big.NewInt(1), big.NewInt(1)
		for k := 1; k < n; k++ {
			rows[n][k] = new(big.Int).Add(rows[n-1][k-1], rows[n-1][k])
		}
	}
	return rows
})

// bigBinomial is C(n, k) from the oracle's triangle, 0 outside it.
func bigBinomial(n, k int) *big.Int {
	if k < 0 || k > n {
		return new(big.Int)
	}
	return pascal()[n][k]
}

// bigIndex is the paper's index(r) − 1 = (⌈r/n⌉ − 1) mod α on math/big
// integers, for r ≥ 1.
func bigIndex(n, fsize int, r types.Round) *big.Int {
	one, bn := big.NewInt(1), big.NewInt(int64(n))
	idx := new(big.Int).Add(big.NewInt(int64(r)), bn)
	idx.Sub(idx, one).Quo(idx, bn).Sub(idx, one) // ⌈r/n⌉ − 1
	return idx.Mod(idx, bigBinomial(n, fsize))
}

// bigUnrank is the rank-th k-subset of {1..n} in lexicographic order of
// the ascending member lists, on math/big integers; ok is false for a
// rank outside [0, C(n, k)).
func bigUnrank(n, k int, rank *big.Int) (comb []types.ProcID, ok bool) {
	if k < 0 || k > n || rank.Sign() < 0 || rank.Cmp(bigBinomial(n, k)) >= 0 {
		return nil, false
	}
	r := new(big.Int).Set(rank)
	for elem, need := 1, k; need > 0; elem++ {
		if c := bigBinomial(n-elem, need-1); r.Cmp(c) >= 0 {
			r.Sub(r, c)
			continue
		}
		comb = append(comb, types.ProcID(elem))
		need--
	}
	return comb, true
}

// bigRank is bigUnrank's inverse: the 0-based rank of the ascending
// k-subset comb of {1..n}.
func bigRank(n int, comb []types.ProcID) *big.Int {
	rank := new(big.Int)
	prev := 0
	for i, e := range comb {
		for v := prev + 1; v < int(e); v++ {
			rank.Add(rank, bigBinomial(n-v, len(comb)-i-1))
		}
		prev = int(e)
	}
	return rank
}

// checkRound compares the plan's index and F set at round r with the
// oracle's.
func checkRound(t *testing.T, rp *RoundPlan, r types.Round) {
	t.Helper()
	idx := bigIndex(rp.n, rp.fsize, r)
	want, ok := bigUnrank(rp.n, rp.fsize, idx)
	if !ok {
		t.Fatalf("oracle: index %v out of range for C(%d,%d)", idx, rp.n, rp.fsize)
	}
	if got := rp.FIndex(r); !idx.IsUint64() || got != idx.Uint64() {
		t.Fatalf("n=%d fsize=%d: FIndex(%d) = %d, want %v", rp.n, rp.fsize, r, got, idx)
	}
	if got := rp.FSet(r); got != types.NewProcSet(want...) {
		t.Fatalf("n=%d fsize=%d: FSet(%d) = %v, want %v", rp.n, rp.fsize, r, got, want)
	}
}

func TestBinomialSmall(t *testing.T) {
	tests := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{4, 3, 4}, {7, 5, 21}, {10, 7, 120},
		{13, 9, 715}, {5, 2, 10}, {6, 3, 20},
		{52, 5, 2598960},
		{3, 5, 0},  // k > n
		{3, -1, 0}, // k < 0
	}
	for _, tt := range tests {
		if got := binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

// TestBinomialMatchesBig: for every n ≤ MaxProcs and k ≤ n, binomial is
// C(n, k) where that fits in a uint64 and MaxUint64 exactly where it
// does not.
func TestBinomialMatchesBig(t *testing.T) {
	for n := 0; n <= types.MaxProcs; n++ {
		for k := 0; k <= n; k++ {
			want := bigBinomial(n, k)
			got := binomial(n, k)
			if want.IsUint64() && got != want.Uint64() || !want.IsUint64() && got != math.MaxUint64 {
				t.Fatalf("binomial(%d,%d) = %d, want %v", n, k, got, want)
			}
		}
	}
}

// TestBinomialOverflow: a value past uint64 saturates, and a value that
// fits is exact even where the running product overflows 64 bits.
func TestBinomialOverflow(t *testing.T) {
	// C(200,100) greatly exceeds uint64.
	if got := binomial(200, 100); got != math.MaxUint64 {
		t.Fatalf("binomial(200,100) = %d, want saturation", got)
	}
	// C(67,33) = 14 226 520 737 620 288 370 fits; its last step multiplies
	// C(66,32) by 67, past 2⁶⁴.
	if got := binomial(67, 33); got != 14226520737620288370 {
		t.Fatalf("binomial(67,33) = %d", got)
	}
	if got := binomial(68, 34); got != math.MaxUint64 {
		t.Fatalf("binomial(68,34) = %d, want saturation", got)
	}
}

// TestUnrankEnumerationOrder: rounds walk the C(5,3) = 10 subsets in
// lexicographic order, one block of n rounds each, as the oracle does.
func TestUnrankEnumerationOrder(t *testing.T) {
	want := [][]types.ProcID{
		{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {1, 3, 4}, {1, 3, 5},
		{1, 4, 5}, {2, 3, 4}, {2, 3, 5}, {2, 4, 5}, {3, 4, 5},
	}
	rp, err := NewRoundPlan(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := rp.FSet(types.Round(5*i + 1)).Members(); !slices.Equal(got, w) {
			t.Fatalf("F at rank %d = %v, want %v", i, got, w)
		}
		if got, _ := bigUnrank(5, 3, big.NewInt(int64(i))); !slices.Equal(got, w) {
			t.Fatalf("oracle at rank %d = %v, want %v", i, got, w)
		}
	}
}

// TestUnrankErrors: the plan never unranks outside [0, α): the block
// after the last subset wraps to rank 0 and rounds below 1 take rank 0,
// where the oracle refuses ranks α, −1 and a subset larger than n.
func TestUnrankErrors(t *testing.T) {
	rp, err := NewRoundPlan(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.FIndex(5*9 + 1); got != 9 {
		t.Errorf("FIndex at the last block = %d, want 9", got)
	}
	if got := rp.FIndex(5*10 + 1); got != 0 {
		t.Errorf("block α must wrap to rank 0, got %d", got)
	}
	for _, r := range []types.Round{0, -1, math.MinInt64} {
		if got := rp.FIndex(r); got != 0 || rp.FSet(r) != types.NewProcSet(1, 2, 3) {
			t.Errorf("round %d: FIndex %d, FSet %v; want rank 0", r, got, rp.FSet(r))
		}
	}
	if _, ok := bigUnrank(5, 3, big.NewInt(10)); ok {
		t.Error("oracle: rank = C(n,k) must be rejected")
	}
	if _, ok := bigUnrank(5, 3, big.NewInt(-1)); ok {
		t.Error("oracle: negative rank must be rejected")
	}
	if _, ok := bigUnrank(5, 6, big.NewInt(0)); ok {
		t.Error("oracle: k > n must be rejected")
	}
}

// TestRankUnrankRoundTrip property-checks, for every n ≤ MaxProcs, that
// F at a random rank is an ascending fsize-subset of {1..n} whose
// oracle rank is that rank.
func TestRankUnrankRoundTrip(t *testing.T) {
	f := func(nRaw, kRaw uint8, rRaw uint64) bool {
		n := int(nRaw)%types.MaxProcs + 1
		k := int(kRaw)%n + 1
		rp, err := NewRoundPlan(n, k)
		if err != nil {
			return false
		}
		rank := rRaw % min(rp.alpha, math.MaxInt64/uint64(n))
		comb := rp.FSet(types.Round(rank*uint64(n) + 1)).Members()
		if len(comb) != k || int(comb[len(comb)-1]) > n {
			return false
		}
		return bigRank(n, comb).Cmp(new(big.Int).SetUint64(rank)) == 0
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
	if rp.alpha != 4 {
		t.Fatalf("alpha = %d, want 4", rp.alpha)
	}
	// Rounds 1..4 use F index 0; rounds 5..8 index 1; ... rounds 17..20
	// wrap back to index 0.
	for r := types.Round(1); r <= 20; r++ {
		wantIdx := uint64((r+3)/4-1) % 4
		if got := rp.FIndex(r); got != wantIdx {
			t.Errorf("FIndex(%d) = %d, want %d", r, got, wantIdx)
		}
	}
	if f1, f17 := rp.FSet(1), rp.FSet(17); f1 != f17 {
		t.Errorf("F must wrap: F(1)=%v F(17)=%v", f1, f17)
	}
	// The last round: ⌈r/n⌉ − 1 = 2⁶¹ − 1, so index(r) − 1 = 3 and F is
	// the last subset {2,3,4} (⌈r/n⌉ computed as (r+n−1)/n overflows).
	if got := rp.FSet(math.MaxInt64); got != types.NewProcSet(2, 3, 4) {
		t.Errorf("F(MaxInt64) = %v, want [2 3 4]", got)
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
		key := rp.Coord(types.Round(r)).String() + "|" + rp.FSet(types.Round(r)).String()
		seen[key] = true
	}
	if len(seen) != 16 {
		t.Fatalf("expected all 16 (coord,F) pairs within %d rounds, saw %d", total, len(seen))
	}
}

// firstGoodRound returns the smallest round r ≥ from such that coord(r) =
// coordinator, F(r) ⊇ mustContain and F(r) ⊆ allowed. It scans one sweep
// of the coordinator×F space (α·n rounds, plus n for phase alignment)
// and reports ok=false if no round in it qualifies, which per the paper
// means none ever does.
func firstGoodRound(rp *RoundPlan, from types.Round, coordinator types.ProcID, mustContain, allowed types.ProcSet) (types.Round, bool) {
	from = max(from, 1)
	end := from + types.Round(rp.WorstCaseRounds()) + types.Round(rp.n)
	for r := from; r <= end; r++ {
		if f := rp.FSet(r); rp.Coord(r) == coordinator && mustContain.SubsetOf(f) && f.SubsetOf(allowed) {
			return r, true
		}
	}
	return 0, false
}

func TestFirstGoodRound(t *testing.T) {
	rp, err := NewRoundPlan(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	correct := types.NewProcSet(1, 2, 3) // p4 faulty
	// coordinator must be p2, F must contain {1,2} and avoid p4.
	r, ok := firstGoodRound(rp, 1, 2, types.NewProcSet(1, 2), correct)
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
	r2, ok := firstGoodRound(rp, r+1, 2, types.NewProcSet(1, 2), correct)
	if !ok || r2 <= r {
		t.Fatalf("firstGoodRound(from=%d) = %d, ok=%v", r+1, r2, ok)
	}
	// Impossible requirement: F ⊆ {1} but |F| = 3.
	if _, ok := firstGoodRound(rp, 1, 2, types.NewProcSet(1), types.NewProcSet(1)); ok {
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
	if rp.alpha != 1 {
		t.Fatalf("alpha = %d, want 1 for k=t", rp.alpha)
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
	// α = C(100,67) does not fit: the bound saturates.
	rp100, err := NewRoundPlan(100, 67)
	if err != nil {
		t.Fatal(err)
	}
	if rp100.WorstCaseRounds() != math.MaxUint64 {
		t.Fatalf("worst case = %d, want MaxUint64", rp100.WorstCaseRounds())
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

// TestRoundPlanUint64MatchesBig: for every n ≤ MaxProcs, t < n/3 and
// k ≤ t, the plan with F sets of size n−t+k gives the index and F set the
// math/big oracle gives at rounds 1, 2, n, n+1, 2²⁰, 2⁶²+12345,
// MaxInt64 and 20 random rounds.
func TestRoundPlanUint64MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= types.MaxProcs; n++ {
		for tt := 0; 3*tt < n; tt++ {
			for k := 0; k <= tt; k++ {
				rp, err := NewRoundPlan(n, n-tt+k)
				if err != nil {
					t.Fatal(err)
				}
				rounds := []types.Round{1, 2, types.Round(n), types.Round(n) + 1, 1 << 20, 1<<62 + 12345, math.MaxInt64}
				for range 20 {
					rounds = append(rounds, types.Round(rng.Int63n(math.MaxInt64)+1))
				}
				for _, r := range rounds {
					checkRound(t, rp, r)
				}
			}
		}
	}
}

// FuzzRoundPlan checks the plan for any n ≤ MaxProcs, t < n/3, k ≤ t and
// round r ≥ 1 against the math/big oracle.
func FuzzRoundPlan(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(0), int64(math.MaxInt64))
	f.Add(uint8(100), uint8(33), uint8(0), int64(1<<62+12345))
	f.Add(uint8(128), uint8(42), uint8(17), int64(1))
	f.Fuzz(func(t *testing.T, nRaw, tRaw, kRaw uint8, r int64) {
		n := int(nRaw)%types.MaxProcs + 1
		tt := int(tRaw) % ((n-1)/3 + 1)
		k := int(kRaw) % (tt + 1)
		rp, err := NewRoundPlan(n, n-tt+k)
		if err != nil {
			t.Fatal(err)
		}
		checkRound(t, rp, types.Round(max(r&math.MaxInt64, 1)))
	})
}

// TestFSetAllocatesNothing: the per-round F-set lookup of an EA round is
// allocation-free.
func TestFSetAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ n, fsize int }{{7, 5}, {100, 67}} {
		rp, err := NewRoundPlan(c.n, c.fsize)
		if err != nil {
			t.Fatal(err)
		}
		r := types.Round(1)
		if allocs := testing.AllocsPerRun(100, func() { _ = rp.FSet(r); r += 7 }); allocs != 0 {
			t.Fatalf("n=%d: FSet allocates %v times per call", c.n, allocs)
		}
	}
}
