#include "pobp/forest/bas.hpp"

#include <sstream>
#include <vector>

#include "pobp/diag/registry.hpp"

namespace pobp {

std::size_t SubForest::kept_count() const {
  std::size_t count = 0;
  for (const char c : keep) count += c != 0;
  return count;
}

Value SubForest::value(const Forest& forest) const {
  POBP_ASSERT(keep.size() == forest.size());
  Value sum = 0;
  for (NodeId v = 0; v < forest.size(); ++v) {
    if (keep[v]) sum += forest.value(v);
  }
  return sum;
}

namespace rules = diag::rules;

void diagnose_bas(const Forest& forest, const SubForest& sel, std::size_t k,
                  diag::Report& report) {
  if (sel.keep.size() != forest.size()) {
    report
        .add(std::string(rules::kBasMaskSize),
             "selection mask size mismatch")
        .with("mask_size", sel.keep.size())
        .with("forest_size", forest.size());
    return;  // per-node rules are meaningless on a mismatched mask
  }

  // has_kept_ancestor[v] computed top-down; ids are parents-first, so a
  // simple forward scan is a valid topological order.
  std::vector<char> has_kept_ancestor(forest.size(), 0);
  for (NodeId v = 0; v < forest.size(); ++v) {
    const NodeId p = forest.parent(v);
    if (p == kNoNode) continue;
    has_kept_ancestor[v] = has_kept_ancestor[p] || sel.kept(p);
  }

  for (NodeId v = 0; v < forest.size(); ++v) {
    if (!sel.kept(v)) continue;
    const NodeId p = forest.parent(v);
    const bool component_root = p == kNoNode || !sel.kept(p);
    if (component_root && has_kept_ancestor[v]) {
      std::ostringstream os;
      os << "node " << v
         << " roots a component but has a kept proper ancestor "
            "(ancestor independence violated)";
      diag::Location loc;
      loc.node = v;
      report.add(std::string(rules::kBasAncestorDependence), os.str(), loc);
    }
    std::size_t kept_children = 0;
    for (const NodeId c : forest.children(v)) kept_children += sel.kept(c);
    if (kept_children > k) {
      std::ostringstream os;
      os << "node " << v << " has " << kept_children
         << " kept children, exceeding the degree bound k=" << k;
      diag::Location loc;
      loc.node = v;
      report.add(std::string(rules::kBasDegreeOverflow), os.str(), loc)
          .with("kept_children", kept_children)
          .with("bound", k);
    }
  }
}

BasCheck validate_bas(const Forest& forest, const SubForest& sel,
                      std::size_t k) {
  diag::Report report;
  diagnose_bas(forest, sel, k, report);
  if (report.ok()) return {};
  return {false, report.first_error()};
}

SubForest brute_force_bas(const Forest& forest, std::size_t k) {
  POBP_ASSERT_MSG(forest.size() <= 20, "brute_force_bas is exponential");
  const std::size_t n = forest.size();
  SubForest best{std::vector<char>(n, 0)};
  Value best_value = 0;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    SubForest candidate{std::vector<char>(n, 0)};
    Value value = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (mask & (1ull << v)) {
        candidate.keep[v] = 1;
        value += forest.value(static_cast<NodeId>(v));
      }
    }
    if (value > best_value && validate_bas(forest, candidate, k)) {
      best = std::move(candidate);
      best_value = value;
    }
  }
  return best;
}

}  // namespace pobp
