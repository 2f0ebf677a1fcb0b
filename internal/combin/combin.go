// Package combin computes the round plan of the paper's eventual
// agreement object (§5.2, with the tuning parameter k of §5.4). For a
// round r ≥ 1, with F sets of size n−t+k:
//
//	coord(r)  = ((r-1) mod n) + 1
//	index(r)  = ((⌈r/n⌉ - 1) mod α) + 1,   α = C(n, n-t+k)
//	F(r)      = the index(r)-th (n-t+k)-subset of {1..n}, lexicographically
//
// α grows quickly, so the subsets are never listed: F(r) is computed by
// unranking index(r) directly.
//
// Exactness. All of it is uint64 arithmetic, and it is exact for every n
// (in particular every n ≤ types.MaxProcs):
//
//   - binomial saturates at MaxUint64. Its running value after step i is
//     C(n−k+i, i), which never shrinks as i grows, and each step divides a
//     128-bit product with bits.Div64. So the result is exact whenever
//     C(n, k) fits in a uint64, even where a product does not, and
//     MaxUint64 otherwise.
//   - The 0-based block ⌊(r−1)/n⌋ = ⌈r/n⌉ − 1 of any round is below 2⁶³.
//     A saturated α, like the true one, exceeds it, so block mod α is the
//     block itself either way.
//   - Unranking a rank below 2⁶³ compares it with binomials and subtracts
//     only those it is not below. A saturated binomial is above every such
//     rank, as the true value is, so each comparison goes the way it goes
//     on exact integers and each subtracted value is exact.
//   - The §5.4 bound α·n saturates at MaxUint64.
//
// The tests check all of this against math/big for every n ≤ 128.
package combin

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/types"
)

// binomial returns C(n, k), 0 outside the triangle, saturated at
// MaxUint64.
func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	k = min(k, n-k)
	c := uint64(1)
	for i := 1; i <= k; i++ {
		// c is C(n−k+i−1, i−1), and c·(n−k+i)/i = C(n−k+i, i) divides
		// exactly; the quotient overflows 64 bits exactly when hi ≥ i.
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		if hi >= uint64(i) {
			return math.MaxUint64
		}
		c, _ = bits.Div64(hi, lo, uint64(i))
	}
	return c
}

// RoundPlan maps round numbers to coordinators and F(r) sets of size
// fsize = n−t+k (k = 0 is the basic algorithm of §5.2).
type RoundPlan struct {
	n     int
	fsize int
	alpha uint64 // C(n, fsize), saturated at MaxUint64
}

// NewRoundPlan builds the plan for n processes and F-sets of size fsize.
// fsize must be within [1, n].
func NewRoundPlan(n, fsize int) (*RoundPlan, error) {
	if n < 1 || fsize < 1 || fsize > n {
		return nil, fmt.Errorf("combin: invalid round plan n=%d fsize=%d", n, fsize)
	}
	return &RoundPlan{n: n, fsize: fsize, alpha: binomial(n, fsize)}, nil
}

// Coord returns the coordinator of round r: ((r−1) mod n) + 1.
func (rp *RoundPlan) Coord(r types.Round) types.ProcID {
	if r < 1 {
		return types.NoProc
	}
	return types.ProcID((int64(r)-1)%int64(rp.n) + 1)
}

// FIndex returns the 0-based rank of F(r), the paper's index(r) − 1:
// (⌈r/n⌉ − 1) mod α, and 0 for r < 1.
func (rp *RoundPlan) FIndex(r types.Round) uint64 {
	if r < 1 {
		return 0
	}
	return uint64(r-1) / uint64(rp.n) % rp.alpha
}

// FSet returns F(r), the FIndex(r)-th fsize-subset of {1..n} in
// lexicographic order of the ascending member lists.
func (rp *RoundPlan) FSet(r types.Round) types.ProcSet {
	var f types.ProcSet
	rank := rp.FIndex(r)
	for elem, need := 1, rp.fsize; need > 0; elem++ {
		// C(n−elem, need−1) subsets take elem as their next member.
		if c := binomial(rp.n-elem, need-1); rank >= c {
			rank -= c
			continue
		}
		f.Add(types.ProcID(elem))
		need--
	}
	return f
}

// WorstCaseRounds returns the §5.4 bound on the number of rounds needed to
// hit a (coordinator, F) pair that works, when a ⟨fsize-(n-t)+t+1⟩bisource
// exists from the start: α·n, saturated at MaxUint64.
func (rp *RoundPlan) WorstCaseRounds() uint64 {
	hi, lo := bits.Mul64(rp.alpha, uint64(rp.n))
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}
