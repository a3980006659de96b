// Procedure TM (§3.2): the optimal dynamic program for max-value k-BAS.
//
// Bottom-up it computes, for every node u,
//   t(u) = val(u) + Σ_{v ∈ C_k(u)} t(v)      (u retained; C_k = top-k by t)
//   m(u) = Σ_{v ∈ C(u)} max(t(v), m(v))      (u pruned-up)
// and top-down it materializes the decisions (Obs. 3.8): a retained node
// keeps its top-k children and prunes-down the rest; a pruned-up node lets
// each child independently choose retained vs pruned-up.
//
// Runs in O(|V|) time up to the top-k selection (O(deg log deg) per node via
// nth_element — linear overall in practice) and is exact (Theorem: it
// implements equation 3.1).
//
// The scratch-taking forms reuse every DP buffer (including the TmResult's
// own arrays via assign()), so a warmed-up TmScratch + TmResult pair makes
// the whole DP allocation-free — the property the deep-chain stress test
// pins down.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "pobp/forest/bas.hpp"
#include "pobp/forest/forest.hpp"

namespace pobp {

/// Result of the TM dynamic program.
struct TmResult {
  SubForest selection;     ///< the optimal k-BAS
  Value value = 0;         ///< val(selection) = Σ_roots max(t, m)
  std::vector<Value> t;    ///< t(u) per node (aggregate value if retained)
  std::vector<Value> m;    ///< m(u) per node (aggregate value if pruned-up)
};

/// Per-root-tree buffers for tm_optimal_bas_forked (one per concurrent
/// root task, recycled across solves).
struct TmForkTask {
  std::vector<NodeId> nodes;  ///< root subtree, parents-first
  std::vector<NodeId> topk;   ///< per-task top-k staging (arena slots)
  std::vector<std::pair<NodeId, char>> stack;  ///< per-task decision stack
};

/// Reusable buffers for the DP passes.
///
/// The DP tables come in two layouts: the node-indexed t/m arrays live in
/// TmResult (they are outputs), and slot-indexed mirrors live here, keyed
/// by the forest's flat CSR child arena (Forest::child_slot).  A parent's
/// children occupy one contiguous slot range, so the bottom-up merge reads
/// two sequential streams (slot_t, slot_m) instead of two gathers per
/// child — the SoA form of the R1 child-merge.  slot_m[s] caches
/// max(t(c), m(c)) at the moment child c finishes, so the parent's m-sum
/// is a single streaming pass.
struct TmScratch {
  std::vector<NodeId> topk;  ///< top-k selection staging (arena slots)
  std::vector<std::pair<NodeId, char>> stack;  ///< top-down decision stack
  std::vector<TmForkTask> fork_tasks;  ///< per-root tasks (forked entry)
  std::vector<Value> slot_t;  ///< t(c) by arena slot of c
  std::vector<Value> slot_m;  ///< max(t(c), m(c)) by arena slot of c
};

/// Computes the optimal (max-value) k-BAS of `forest` for degree bound k.
TmResult tm_optimal_bas(const Forest& forest, std::size_t k);

/// Scratch-reusing form (identical result): `out` is overwritten.
void tm_optimal_bas(const Forest& forest, std::size_t k, TmScratch& scratch,
                    TmResult& out);

/// Per-node degree budgets k(v) — the DP is unchanged except that C_k(u)
/// becomes C_{k(u)}(u).  Useful for hierarchy-selection applications where
/// different nodes tolerate different fan-outs.
TmResult tm_optimal_bas(const Forest& forest,
                        std::span<const std::size_t> degree_bounds);

/// Scratch-reusing form of the per-node-budget variant.
void tm_optimal_bas(const Forest& forest,
                    std::span<const std::size_t> degree_bounds,
                    TmScratch& scratch, TmResult& out);

/// Intra-solve parallel form: identical (bit-for-bit) result to
/// tm_optimal_bas — root subtrees are disjoint and every DP quantity
/// depends only on a node's descendants, so running the per-root DPs
/// concurrently and summing root optima in root order changes nothing —
/// but fans the roots out across the global thread pool when the forest
/// has at least `fork_min_nodes` nodes and more than one root
/// (`fork_min_nodes` = 0 disables forking).  Falls back to the serial DP
/// when a SolveBudget is active (budget op accounting is thread-local and
/// the exhaustion point must not depend on the worker count) and on a
/// pool worker such as an engine batch worker, where parallel_for would
/// run the roots serially anyway: the fan-out only ever uses otherwise-idle
/// threads, and an engine worker builds nothing for it.
void tm_optimal_bas_forked(const Forest& forest, std::size_t k,
                           TmScratch& scratch, TmResult& out,
                           std::size_t fork_min_nodes);

}  // namespace pobp
