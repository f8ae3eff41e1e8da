package crashsim

import (
	"math/rand"
	"strconv"
	"strings"
)

// maxFeasible caps the feasible-schedule count computation so a crash
// point with many pending lines cannot overflow int64.
const maxFeasible = int64(1) << 40

// enumerateCuts produces the crash schedules for one crash point whose
// pending lines have the given store counts. Each schedule is a cuts
// vector: cuts[i] ∈ [0, sizes[i]] selects how many of line i's stores
// reached PM (the per-line prefix model). It returns the schedules plus
// the total feasible count Π(sizes[i]+1).
//
// When the feasible count fits the budget, enumeration is exhaustive.
// Otherwise the selection is deterministic stratified sampling:
//
//  1. the two corner schedules — all-zero (worst case: nothing unfenced
//     survived) and all-max (everything was evicted),
//  2. single-line deviations from each corner (one line fully evicted
//     while the rest vanish, and vice versa), which exercise the
//     "this line arrived without that one" orderings that break
//     naive recovery code,
//  3. pseudo-random schedules from rng, seeded with seed, to fill the
//     remaining budget.
//
// The all-zero corner is always first: it is the schedule the repo's
// historical end-of-run spot check used, so sampling can never be weaker
// than that check was.
func enumerateCuts(sizes []int, budget int, seed int64, rng *sampler) ([][]int, int64) {
	feasible := int64(1)
	for _, n := range sizes {
		feasible *= int64(n + 1)
		if feasible > maxFeasible {
			feasible = maxFeasible
			break
		}
	}
	if budget < 1 {
		budget = 1
	}

	if feasible <= int64(budget) {
		return exhaustiveCuts(sizes), feasible
	}

	seen := make(map[string]bool, budget)
	var out [][]int
	add := func(cuts []int) {
		if len(out) >= budget {
			return
		}
		key := cutsKey(cuts)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, cuts)
	}

	zero := make([]int, len(sizes))
	full := make([]int, len(sizes))
	for i, n := range sizes {
		full[i] = n
	}
	add(zero)
	add(append([]int(nil), full...))
	for i := range sizes {
		if sizes[i] == 0 {
			continue
		}
		dev := make([]int, len(sizes))
		dev[i] = sizes[i]
		add(dev)
		dev2 := append([]int(nil), full...)
		dev2[i] = 0
		add(dev2)
	}
	if len(out) < budget {
		r := rng.seeded(seed)
		for tries := 0; len(out) < budget && tries < budget*20; tries++ {
			cuts := make([]int, len(sizes))
			for i, n := range sizes {
				cuts[i] = r.Intn(n + 1)
			}
			add(cuts)
		}
	}
	return out, feasible
}

// sampler is one worker's schedule-sampling RNG. enumerateCuts seeds it
// only on reaching its random phase: a seed costs as much as hundreds of
// draws, and most crash points enumerate exhaustively or fill their
// budget from the corners.
type sampler struct {
	r *rand.Rand
}

// seeded returns the RNG reset to the stream rand.NewSource(seed)
// yields, creating it on first use.
func (s *sampler) seeded(seed int64) *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(seed))
	} else {
		s.r.Seed(seed)
	}
	return s.r
}

// exhaustiveCuts walks the full cuts space odometer-style.
func exhaustiveCuts(sizes []int) [][]int {
	cur := make([]int, len(sizes))
	var out [][]int
	for {
		out = append(out, append([]int(nil), cur...))
		i := len(sizes) - 1
		for ; i >= 0; i-- {
			if cur[i] < sizes[i] {
				cur[i]++
				break
			}
			cur[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func cutsKey(cuts []int) string {
	var b strings.Builder
	for _, c := range cuts {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	return b.String()
}
