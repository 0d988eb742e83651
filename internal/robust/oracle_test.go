package robust

import (
	"math"
	"sort"

	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// oracleVerify is the reference for Verify: map-of-maps crossing tables
// over the plan's failure-free paths and its own statement of the need
// rule. TestVerifyMatchesOracle requires Verify to reproduce its verdicts
// exactly.

// oracleVerify checks each matrix's admissibility under a fixed allocation,
// mirroring the chaos auditor's provisioning rule. Two independent
// checks per matrix:
//
//   - coverage: every pair's demand fits the wavelengths the allocation
//     provisions for it (circuits are dedicated per pair, so coverage is
//     exactly per-pair dominance up to the allocator's ceiling);
//   - capacity: per crossed duct, the worst-case hose-model load of the
//     crossing pairs — hose.WorstCaseLoad with the matrix's own per-DC
//     aggregates as hose caps, plus the multi-crossing surcharge for hub
//     walks — must fit the base plus cut-through fiber leased there, and
//     the crossing-pair count must fit the residual fibers.
func oracleVerify(dep *core.Deployment, alloc core.Allocation, ms []*traffic.Matrix) []Verdict {
	lambda := dep.Region.Lambda
	out := make([]Verdict, len(ms))
	for i, m := range ms {
		v := Verdict{Index: i, Admissible: true}

		// Per-DC aggregates in fiber units: the hose caps this matrix
		// induces for the worst-case load bound.
		capsF := make(map[int]float64)
		for dc, agg := range m.PerDC() {
			capsF[dc] = agg / float64(lambda)
		}

		crossings := make(map[int]map[hose.Pair]int)
		for p, dm := range m.Demand {
			if dm <= 0 {
				continue
			}
			c := p.Canonical()
			prov := float64(alloc.FibersFor(c)*lambda + alloc.ResidualFor(c))
			if dm > prov+containsEps {
				v.Uncovered = append(v.Uncovered, c)
				v.Admissible = false
			}
			info, ok := dep.Plan.Paths[c]
			if !ok {
				v.Uncovered = append(v.Uncovered, c)
				v.Admissible = false
				continue
			}
			for _, duct := range info.Ducts {
				byPair := crossings[duct]
				if byPair == nil {
					byPair = make(map[hose.Pair]int)
					crossings[duct] = byPair
				}
				byPair[c]++
			}
		}
		sort.Slice(v.Uncovered, func(a, b int) bool { return lessPair(v.Uncovered[a], v.Uncovered[b]) })

		ductIDs := make([]int, 0, len(crossings))
		for id := range crossings {
			ductIDs = append(ductIDs, id)
		}
		sort.Ints(ductIDs)
		for _, id := range ductIDs {
			du := dep.Plan.Ducts[id]
			if du == nil {
				continue
			}
			byPair := crossings[id]
			pairs := make([]hose.Pair, 0, len(byPair))
			extra := 0.0
			for pair, k := range byPair {
				pairs = append(pairs, pair)
				if k > 1 {
					extra += float64(k-1) * math.Min(capsF[pair.A], capsF[pair.B])
				}
			}
			need := int(math.Ceil(hose.WorstCaseLoad(capsF, pairs) + extra - 1e-9))
			if have := du.BasePairs + du.CutThroughPairs; need > have {
				v.Overloads = append(v.Overloads, Overload{Duct: id, Need: need, Have: have})
				v.Admissible = false
			}
			if n, have := len(byPair), du.ResidualPairs; n > have {
				v.ResidualOverloads = append(v.ResidualOverloads, Overload{Duct: id, Need: n, Have: have})
				v.Admissible = false
			}
		}
		out[i] = v
	}
	return out
}
