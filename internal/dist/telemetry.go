package dist

import "esd/internal/telemetry"

// Distance-heuristic traffic instruments. Lookups count goal distances
// answered from the memoized tables — one per goal per stack walk
// (Scorer.Min), so a single-goal StateDistance/SyncDistance counts one —
// split by metric kind, while goal builds count the cold computeGoal
// fixpoints; the gap between the two is the memoization effectiveness the
// hot-path design depends on. The shared Calculator cache counters are
// scrape-time views over the same atomics SharedCacheStats reads.
var (
	distLookups = telemetry.NewCounterVec("esd_dist_lookups_total",
		"Goal distances answered from memoized tables, one per goal per stack walk, by metric kind.",
		"metric")
	distBuilds = telemetry.NewCounterVec("esd_dist_goal_builds_total",
		"Cold per-goal distance-table builds, by metric kind.",
		"metric")
)

func init() {
	telemetry.NewCounterFunc("esd_dist_shared_cache_hits_total",
		"ForProgram calls served by an existing shared Calculator.",
		func() int64 { h, _ := SharedCacheStats(); return h })
	telemetry.NewCounterFunc("esd_dist_shared_cache_misses_total",
		"ForProgram calls that built a new shared Calculator.",
		func() int64 { _, m := SharedCacheStats(); return m })
}
