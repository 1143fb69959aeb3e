package analyzers

import "repro/tools/dewsvet/analysis"

// All returns the full dewsvet suite in the order findings are
// documented: concurrency first, then durability.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Lockhold,
		Rcusnap,
		Wralerr,
	}
}
