// k-BAS as a stand-alone combinatorial tool: fan-out-bounded selection in
// a hierarchy.
//
// Scenario: a CDN must pick which objects of a site hierarchy to pin in an
// edge cache.  Pinning a directory only pays off if its hot children are
// pinned with it, but each pinned node may keep at most k pinned children
// (per-node index fan-out).  Sections of the tree must not be pinned
// "around a hole" (a pinned ancestor with an unpinned link to a pinned
// descendant is useless) — which is precisely ancestor independence.
// Maximizing pinned hit-value under those rules is the k-BAS problem the
// paper solves optimally with the TM dynamic program (§3.2).
//
//   ./build/examples/bas_pruning [nodes] [k]
#include <cstdio>
#include <cstdlib>
#include <set>

#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/schedule/metrics.hpp"
#include "pobp/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace pobp;
  const std::size_t nodes =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 100'000;
  const std::size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 2;

  // Site hierarchy with heavy-tailed popularity (a few viral objects).
  Rng rng(99);
  ForestGenConfig config;
  config.nodes = nodes;
  config.max_degree = 12;
  config.value_dist = ForestGenConfig::ValueDist::kHeavyTail;
  const Forest site = random_forest(config, rng);
  std::printf("hierarchy: %zu objects, %zu roots, total hit-value %.0f\n\n",
              site.size(), site.roots().size(), site.total_value());

  const std::set<std::size_t> fans{1, 2, k, 4, 8};
  for (const std::size_t fan : fans) {
    const TmResult optimal = tm_optimal_bas(site, fan);
    const ContractionResult heuristic = levelled_contraction(site, fan);
    const BasCheck check = validate_bas(site, optimal.selection, fan);
    if (!check) {
      std::printf("invalid selection: %s\n", check.error.c_str());
      return 1;
    }
    std::printf(
        "fan-out k=%zu: pin %7zu objects, value %12.0f (%.1f%% of total) | "
        "levelled-contraction heuristic %.1f%% | guarantee ≥ %.1f%%\n",
        fan, optimal.selection.kept_count(), optimal.value,
        100.0 * optimal.value / site.total_value(),
        100.0 * heuristic.value / site.total_value(),
        100.0 / log_k1(fan, static_cast<double>(site.size())));
  }

  std::printf(
      "\nreading: the optimal DP retains most of the value even at k=1 — "
      "far better than its worst-case 1/log_{k+1} n guarantee — and the "
      "paper's contraction heuristic trails it by a bounded factor.\n");
  return 0;
}
