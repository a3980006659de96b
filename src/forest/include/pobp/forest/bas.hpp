// k-BAS: k-Bounded-Degree Ancestor-Independent Sub-Forests (Defs. 3.1–3.4).
//
// A sub-forest is described by a keep mask over the nodes of the host
// forest; its edges are the host edges between kept nodes.  This header
// provides the selection type, the validator (the ground truth every k-BAS
// algorithm is tested against) and the brute-force optimal oracle.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/forest/forest.hpp"

namespace pobp {

/// A selected sub-forest: keep[v] != 0 iff v is retained.
struct SubForest {
  std::vector<char> keep;

  bool kept(NodeId v) const { return keep[v] != 0; }
  std::size_t kept_count() const;
  Value value(const Forest& forest) const;
};

struct BasCheck {
  bool ok = true;
  std::string error;
  explicit operator bool() const { return ok; }
};

/// Reports every violation of Defs. 3.1–3.2 through the diagnostics engine:
///  * POBP-BAS-001 — the keep mask does not match the forest size;
///  * POBP-BAS-002 — ancestor independence: a kept node whose parent is
///    deleted (i.e. the root of a component of the sub-forest) has a kept
///    proper ancestor;
///  * POBP-BAS-003 — bounded degree: a kept node has more than k kept
///    children.
void diagnose_bas(const Forest& forest, const SubForest& sel, std::size_t k,
                  diag::Report& report);

/// First-failure shim over diagnose_bas — checks Defs. 3.1–3.2:
///  * ancestor independence — a kept node whose parent is deleted (i.e. the
///    root of a component of the sub-forest) has no kept proper ancestor;
///  * bounded degree — every kept node has at most k kept children.
BasCheck validate_bas(const Forest& forest, const SubForest& sel,
                      std::size_t k);

/// Exponential-time exact optimum (max-value k-BAS) for tiny forests —
/// the oracle the DP is cross-validated against.  Aborts if n > 20.
SubForest brute_force_bas(const Forest& forest, std::size_t k);

}  // namespace pobp
