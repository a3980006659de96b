#include "pobp/bas/tm.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
#include <vector>

#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/parallel.hpp"

namespace pobp {
namespace {

/// The selection's value against the DP's: the same values summed in a
/// different order, so equal up to a tolerance — or one order overflowed
/// to +inf where the other stayed just below DBL_MAX.
[[maybe_unused]] bool same_value_up_to_order(Value selected, Value dp) {
  if (std::isinf(selected) || std::isinf(dp)) return true;
  return std::abs(selected - dp) <= 1e-9 * (1.0 + std::abs(dp));
}

/// The (up to) k children of u with the highest t values.  Deterministic:
/// ties broken toward the smaller child id.  When u has at most k children
/// the whole child span is the answer and `topk` is untouched; otherwise
/// the selection happens in `topk` (no per-node allocation once it has
/// grown).
std::span<const NodeId> top_k_children(const Forest& forest, NodeId u,
                                       std::size_t k,
                                       const std::vector<Value>& t,
                                       std::vector<NodeId>& topk) {
  const std::span<const NodeId> kids = forest.children(u);
  if (kids.size() <= k) return kids;
  topk.assign(kids.begin(), kids.end());
  std::nth_element(topk.begin(), topk.begin() + static_cast<std::ptrdiff_t>(k),
                   topk.end(), [&](NodeId a, NodeId b) {
                     if (t[a] != t[b]) return t[a] > t[b];
                     return a < b;
                   });
  return {topk.data(), k};
}

enum : char { kRetain = 0, kPruneUp = 1 };

/// Bottom-up step for node u, whose children are already final: t(u) over
/// the top-k children, m(u) over every child's better choice.
void tm_visit(const Forest& forest, std::size_t k, NodeId u,
              std::vector<NodeId>& topk, TmResult& result) {
  auto& t = result.t;
  auto& m = result.m;
  Value t_u = forest.value(u);
  for (const NodeId c : top_k_children(forest, u, k, t, topk)) t_u += t[c];
  Value m_u = 0;
  for (const NodeId c : forest.children(u)) m_u += std::max(t[c], m[c]);
  t[u] = t_u;
  m[u] = m_u;
}

/// Top-down decision pass over root's tree.  State per node: RETAIN or
/// PRUNE_UP (pruned-down nodes are simply never visited).
void tm_decide(const Forest& forest, std::size_t k, NodeId root,
               std::vector<NodeId>& topk,
               std::vector<std::pair<NodeId, char>>& stack,
               TmResult& result) {
  const auto choose = [&](NodeId v) {
    stack.emplace_back(v, result.t[v] >= result.m[v] ? kRetain : kPruneUp);
  };
  stack.clear();
  choose(root);
  while (!stack.empty()) {
    const auto [u, decision] = stack.back();
    stack.pop_back();
    if (decision == kRetain) {
      result.selection.keep[u] = 1;
      // Top-k children stay retained; the rest are pruned-down (discarded
      // with all their descendants) — Obs. 3.8(a): a retained node cannot
      // have pruned-up descendants.
      for (const NodeId c : top_k_children(forest, u, k, result.t, topk)) {
        stack.emplace_back(c, kRetain);
      }
    } else {
      for (const NodeId c : forest.children(u)) choose(c);
    }
  }
}

/// Sizes `result` for the DP and clears the selection.
void tm_reset(const Forest& forest, TmResult& result) {
  const std::size_t n = forest.size();
  result.value = 0;
  result.t.assign(n, 0);
  result.m.assign(n, 0);
  result.selection.keep.assign(n, 0);
}

/// Σ_roots max(t, m), in root order.
Value tm_total(const Forest& forest, const TmResult& result) {
  Value total = 0;
  for (const NodeId r : forest.roots()) {
    total += std::max(result.t[r], result.m[r]);
  }
  return total;
}

/// One root's share of the DP: bottom-up over the root's subtree (reverse
/// parents-first order = children before parents), then the top-down
/// decision pass from that root.  Writes only to this subtree's entries of
/// t/m/keep, disjoint from every other root task by construction.
void tm_root_task(const Forest& forest, std::size_t k, NodeId root,
                  TmForkTask& task, TmResult& result) {
  forest.subtree(root, task.nodes);
  for (std::size_t i = task.nodes.size(); i-- > 0;) {
    tm_visit(forest, k, task.nodes[i], task.topk, result);
  }
  tm_decide(forest, k, root, task.topk, task.stack, result);
}

}  // namespace

void tm_optimal_bas(const Forest& forest, std::size_t k, TmScratch& scratch,
                    TmResult& out) {
  POBP_FAULT_POINT(kTmDp);
  forest.finalize();
  tm_reset(forest, out);
  // Bottom-up pass (ids are parents-first, so descending id order works).
  for (std::size_t i = forest.size(); i-- > 0;) {
    BudgetGuard::poll();  // one operation per DP node
    tm_visit(forest, k, static_cast<NodeId>(i), scratch.topk, out);
  }
  for (const NodeId r : forest.roots()) {
    tm_decide(forest, k, r, scratch.topk, scratch.stack, out);
  }
  out.value = tm_total(forest, out);

  POBP_DASSERT(same_value_up_to_order(out.selection.value(forest),
                                      out.value));
}

void tm_optimal_bas_forked(const Forest& forest, std::size_t k,
                           TmScratch& scratch, TmResult& out,
                           std::size_t fork_min_nodes) {
  const std::span<const NodeId> roots = forest.roots();
  // On a pool worker parallel_for would run the roots serially anyway.
  if (fork_min_nodes == 0 || forest.size() < fork_min_nodes ||
      roots.size() < 2 || BudgetGuard::active() != nullptr ||
      on_pool_worker()) {
    tm_optimal_bas(forest, k, scratch, out);
    return;
  }
  POBP_FAULT_POINT(kTmDp);  // same site + call count as the serial entry
  forest.finalize();        // CSR must exist before const cross-thread use
  tm_reset(forest, out);

  auto& tasks = scratch.fork_tasks;
  if (tasks.size() < roots.size()) tasks.resize(roots.size());

  // Exceptions must not escape into the pool (fatal by ThreadPool
  // contract): capture per root, rethrow the lowest-indexed one.
  std::vector<std::exception_ptr> errors(roots.size());
  parallel_for(0, roots.size(), [&](std::size_t i) {
    try {
      tm_root_task(forest, k, roots[i], tasks[i], out);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  out.value = tm_total(forest, out);

  POBP_DASSERT(same_value_up_to_order(out.selection.value(forest),
                                      out.value));
}

TmResult tm_optimal_bas(const Forest& forest, std::size_t k) {
  TmScratch scratch;
  TmResult result;
  tm_optimal_bas(forest, k, scratch, result);
  return result;
}

}  // namespace pobp
