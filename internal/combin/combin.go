// Package combin provides the combinatorial machinery behind the eventual
// agreement object of the paper (§5.2): overflow-safe binomial
// coefficients, lexicographic unranking of k-subsets, and the round →
// (coordinator, F(r)) mapping.
//
// The paper defines, for a round r ≥ 1:
//
//	coord(r)  = ((r-1) mod n) + 1
//	index(r)  = ((⌈r/n⌉ - 1) mod α) + 1,   α = C(n, n-t)
//	F(r)      = the index(r)-th combination of (n-t) processes
//
// α grows quickly, so combinations are never materialized as a list: F(r)
// is computed by unranking index(r) directly.
package combin

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/types"
)

// Binomial returns C(n, k) as a uint64 and reports overflow. It is exact
// for every value that fits in the running product; ok is false when an
// intermediate c·(n−k+i) exceeds MaxUint64 (callers fall back to
// BigBinomial).
func Binomial(n, k int) (v uint64, ok bool) {
	if k < 0 || n < 0 || k > n {
		return 0, true // by convention C(n,k)=0 outside the triangle
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 1; i <= k; i++ {
		// c = c * (n-k+i) / i. The running product after dividing by i
		// is exactly C(n-k+i, i), so the division is always exact.
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		if hi != 0 {
			return 0, false
		}
		c = lo / uint64(i)
	}
	return c, true
}

// BigBinomial returns C(n, k) as a big.Int (always exact).
func BigBinomial(n, k int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(k))
}

// Unrank returns the rank-th k-subset of {1..n} in lexicographic order of
// the sorted element lists. rank is 0-based and must satisfy
// 0 ≤ rank < C(n, k). The result is ascending.
//
// Lexicographic unranking: the first element is the smallest c1 such that
// the number of k-subsets starting with something < c1 covers rank.
func Unrank(n, k int, rank *big.Int) ([]types.ProcID, error) {
	if k < 0 || k > n {
		return nil, fmt.Errorf("combin: unrank: k=%d out of range for n=%d", k, n)
	}
	total := BigBinomial(n, k)
	if rank.Sign() < 0 || rank.Cmp(total) >= 0 {
		return nil, fmt.Errorf("combin: unrank: rank %v out of [0, %v)", rank, total)
	}
	out := make([]types.ProcID, 0, k)
	r := new(big.Int).Set(rank)
	elem := 1
	for need := k; need > 0; need-- {
		for {
			// Number of k-subsets that pick elem as the next (smallest
			// remaining) element: C(n-elem, need-1).
			c := BigBinomial(n-elem, need-1)
			if r.Cmp(c) < 0 {
				out = append(out, types.ProcID(elem))
				elem++
				break
			}
			r.Sub(r, c)
			elem++
		}
	}
	return out, nil
}

// Rank is the inverse of Unrank: it returns the 0-based lexicographic rank
// of the ascending k-subset comb of {1..n}.
func Rank(n int, comb []types.ProcID) *big.Int {
	k := len(comb)
	rank := new(big.Int)
	prev := 0
	for i, e := range comb {
		for v := prev + 1; v < int(e); v++ {
			rank.Add(rank, BigBinomial(n-v, k-i-1))
		}
		prev = int(e)
	}
	return rank
}

// RoundPlan maps round numbers to coordinators and F(r) sets, following
// §5.2, generalized with the tuning parameter k of §5.4: the F sets have
// size n−t+k (k = 0 reproduces the basic algorithm).
type RoundPlan struct {
	n     int
	fsize int
	alpha *big.Int // C(n, fsize)
}

// NewRoundPlan builds the plan for n processes and F-sets of size fsize.
// fsize must be within [1, n].
func NewRoundPlan(n, fsize int) (*RoundPlan, error) {
	if n < 1 || fsize < 1 || fsize > n {
		return nil, fmt.Errorf("combin: invalid round plan n=%d fsize=%d", n, fsize)
	}
	return &RoundPlan{n: n, fsize: fsize, alpha: BigBinomial(n, fsize)}, nil
}

// N returns the number of processes.
func (rp *RoundPlan) N() int { return rp.n }

// AlphaUint64 returns α = C(n, fsize), the number of distinct F sets,
// clamped to MaxUint64 (for reporting).
func (rp *RoundPlan) AlphaUint64() uint64 {
	if !rp.alpha.IsUint64() {
		return math.MaxUint64
	}
	return rp.alpha.Uint64()
}

// Coord returns the coordinator of round r: ((r−1) mod n) + 1.
func (rp *RoundPlan) Coord(r types.Round) types.ProcID {
	if r < 1 {
		return types.NoProc
	}
	return types.ProcID((int64(r)-1)%int64(rp.n) + 1)
}

// FIndex returns the 0-based index of the combination used at round r:
// (⌈r/n⌉ − 1) mod α. (The paper's index(r) is 1-based; we use 0-based
// ranks internally.)
func (rp *RoundPlan) FIndex(r types.Round) *big.Int {
	if r < 1 {
		return new(big.Int)
	}
	block := (int64(r) + int64(rp.n) - 1) / int64(rp.n) // ⌈r/n⌉
	idx := new(big.Int).SetInt64(block - 1)
	return idx.Mod(idx, rp.alpha)
}

// F returns the process set F(r) for round r, ascending.
func (rp *RoundPlan) F(r types.Round) []types.ProcID {
	comb, err := Unrank(rp.n, rp.fsize, rp.FIndex(r))
	if err != nil {
		// FIndex is always within [0, α), so this is unreachable; panic
		// loudly rather than return a wrong quorum.
		panic(fmt.Sprintf("combin: F(%d): %v", r, err))
	}
	return comb
}

// FSet is F(r) as a ProcSet.
func (rp *RoundPlan) FSet(r types.Round) types.ProcSet {
	return types.NewProcSet(rp.F(r)...)
}

// WorstCaseRounds returns the §5.4 bound on the number of rounds needed to
// hit a (coordinator, F) pair that works, when a ⟨fsize-(n-t)+t+1⟩bisource
// exists from the start: α·n. The value is clamped to MaxUint64.
func (rp *RoundPlan) WorstCaseRounds() uint64 {
	prod := new(big.Int).Mul(rp.alpha, big.NewInt(int64(rp.n)))
	if !prod.IsUint64() {
		return math.MaxUint64
	}
	return prod.Uint64()
}

// FirstGoodRound returns the smallest round r ≥ from such that coord(r) =
// coordinator and F(r) ⊇ mustContain and F(r) ⊆ allowed. It scans at most
// α·n rounds past `from` and reports ok=false if no such round exists in
// that window (which, per the paper, means no round ever qualifies).
//
// It is used by tests and experiments to predict when the EA object must
// succeed, given ground-truth knowledge of the planted bisource.
func (rp *RoundPlan) FirstGoodRound(from types.Round, coordinator types.ProcID, mustContain, allowed types.ProcSet) (types.Round, bool) {
	if from < 1 {
		from = 1
	}
	// One full sweep of coordinator×combination space.
	limit := new(big.Int).Mul(rp.alpha, big.NewInt(int64(rp.n)))
	limit.Add(limit, big.NewInt(int64(rp.n))) // slack for phase alignment
	if !limit.IsUint64() || limit.Uint64() > 1<<40 {
		// Too large to scan exhaustively; callers use small n in tests.
		return 0, false
	}
	end := from + types.Round(limit.Uint64())
	for r := from; r <= end; r++ {
		if rp.Coord(r) != coordinator {
			continue
		}
		f := rp.FSet(r)
		if !mustContain.SubsetOf(f) {
			continue
		}
		if !f.SubsetOf(allowed) {
			continue
		}
		return r, true
	}
	return 0, false
}
