package coord

// Cost-weighted fair scheduling between tenant sweeps, in the deficit
// round-robin family. Each sweep carries a debt: how much EstCost of
// service it is owed relative to an equal share of everything granted
// while it was runnable. When a grant of cost C goes to one of n
// runnable sweeps, every runnable sweep earns C/n of fair share and
// the chosen one pays the full C, so
//
//	debt_i = fairShare_i - granted_i
//
// holds exactly and the debts of the runnable set always sum to zero.
// The scheduler serves the most-indebted sweep, which bounds how far
// any tenant can fall behind: a 10k-point sweep cannot starve a
// 100-point one, because every grant the big sweep takes raises the
// small sweep's debt until the small sweep is the argmax.
//
// Worker affinity is layered on top as a bounded distortion: a worker
// keeps draining the sweep whose expanded points and caches it already
// holds, unless some other sweep's debt exceeds the affine sweep's by
// more than a threshold (twice the largest runnable fresh-lease cost)
// — then fairness wins and the worker is rebalanced. The threshold is
// therefore also the fairness price of affinity: debts stay within the
// DRR bound plus the threshold.
//
// The functions here are pure (slices in, index out) so the debt-bound
// property test can hammer them without a server.

// pickFair returns the index of the runnable sweep to serve next: the
// highest-debt entry, ties broken by lowest index (registration
// order). affinity, when a valid index, is preferred as long as its
// debt is within threshold of the maximum — the caller passes the
// requesting worker's cached sweep so it keeps draining warm state.
// debts must be non-empty.
func pickFair(debts []float64, affinity int, threshold float64) int {
	best := 0
	for i, d := range debts {
		if d > debts[best] {
			best = i
		}
	}
	if affinity >= 0 && affinity < len(debts) && debts[best]-debts[affinity] <= threshold {
		return affinity
	}
	return best
}

// chargeGrant updates the runnable sweeps' debts for a grant of the
// given cost to debts[picked]: everyone earns an equal fair share of
// the grant, the picked sweep pays its full cost. The sum of debts is
// invariant (zero, if it started zero).
func chargeGrant(debts []float64, picked int, cost float64) {
	share := cost / float64(len(debts))
	for i := range debts {
		debts[i] += share
	}
	debts[picked] -= cost
}
