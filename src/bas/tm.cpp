#include "pobp/bas/tm.hpp"

#include <algorithm>
#include <cmath>
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

// The DP tables are kept in two layouts (see TmScratch): node-indexed
// t/m in the TmResult (outputs, and what the root decisions read), and
// slot-indexed slot_t/slot_m keyed by the forest's flat CSR child arena.
// Within one parent's slot range, ascending slot order equals ascending
// child-id order, and slot_t[s] == t(child_at(s)) bit-for-bit, so every
// selection and every double summation below performs *exactly* the
// operations of the node-indexed formulation, in the same order — the
// layout change alters no result byte.

/// The arena slots of the (up to) k children of u with the highest t
/// values.  Deterministic: ties broken toward smaller slot (= smaller
/// child id).  When u has at most k children the whole contiguous range
/// [first, last) is the answer and `topk` is untouched; otherwise the
/// selection happens in `topk` (no per-node allocation once it has grown).
std::span<const NodeId> top_k_slots(NodeId first, NodeId last,
                                    const std::vector<Value>& slot_t,
                                    std::size_t k,
                                    std::vector<NodeId>& topk) {
  topk.resize(last - first);
  for (NodeId s = first; s < last; ++s) topk[s - first] = s;
  std::nth_element(topk.begin(), topk.begin() + static_cast<std::ptrdiff_t>(k),
                   topk.end(), [&](NodeId a, NodeId b) {
                     if (slot_t[a] != slot_t[b]) return slot_t[a] > slot_t[b];
                     return a < b;
                   });
  return {topk.data(), k};
}

enum : char { kRetain = 0, kPruneUp = 1 };

/// Bottom-up step for one node: t(u) over the top-k child slots, m(u) as
/// one streaming pass over the cached child maxima, and the slot mirror
/// write that makes u visible to its own parent's stream.
template <typename BoundFn>
void tm_visit(const Forest& forest, BoundFn&& k_of, NodeId u,
              std::vector<NodeId>& topk, TmScratch& scratch,
              TmResult& result) {
  const auto [first, last] = forest.child_range(u);
  const std::size_t k = k_of(u);
  Value t_u = forest.value(u);
  if (last - first <= k) {
    for (NodeId s = first; s < last; ++s) t_u += scratch.slot_t[s];
  } else {
    for (const NodeId s : top_k_slots(first, last, scratch.slot_t, k, topk)) {
      t_u += scratch.slot_t[s];
    }
  }
  Value m_u = 0;
  for (NodeId s = first; s < last; ++s) m_u += scratch.slot_m[s];
  result.t[u] = t_u;
  result.m[u] = m_u;
  const NodeId slot = forest.child_slot(u);
  if (slot != kNoNode) {
    scratch.slot_t[slot] = t_u;
    scratch.slot_m[slot] = std::max(t_u, m_u);
  }
}

/// Pushes u's retained-children onto the decision stack: the top-k child
/// slots, mapped back to ids through the arena.
template <typename BoundFn>
void push_retained(const Forest& forest, BoundFn&& k_of, NodeId u,
                   std::vector<NodeId>& topk, TmScratch& scratch,
                   std::vector<std::pair<NodeId, char>>& stack) {
  const auto [first, last] = forest.child_range(u);
  const std::size_t k = k_of(u);
  if (last - first <= k) {
    for (NodeId s = first; s < last; ++s) {
      stack.emplace_back(forest.child_at(s), kRetain);
    }
  } else {
    for (const NodeId s : top_k_slots(first, last, scratch.slot_t, k, topk)) {
      stack.emplace_back(forest.child_at(s), kRetain);
    }
  }
}

template <typename BoundFn>
void tm_optimal_bas_impl(const Forest& forest, BoundFn&& k_of,
                         TmScratch& scratch, TmResult& result) {
  POBP_FAULT_POINT(kTmDp);
  const std::size_t n = forest.size();
  forest.finalize();
  result.value = 0;
  result.t.assign(n, 0);
  result.m.assign(n, 0);
  result.selection.keep.assign(n, 0);
  scratch.slot_t.assign(forest.child_slot_count(), 0);
  scratch.slot_m.assign(forest.child_slot_count(), 0);

  // Bottom-up pass (ids are parents-first, so descending id order works).
  for (std::size_t i = n; i-- > 0;) {
    BudgetGuard::poll();  // one operation per DP node
    tm_visit(forest, k_of, static_cast<NodeId>(i), scratch.topk, scratch,
             result);
  }

  // Top-down decision pass.  State per node: RETAIN, PRUNE_UP or discard
  // (pruned-down nodes are simply never visited).
  auto& stack = scratch.stack;
  stack.clear();
  auto choose = [&](NodeId v) {
    stack.emplace_back(v,
                       result.t[v] >= result.m[v] ? kRetain : kPruneUp);
  };
  for (const NodeId r : forest.roots()) choose(r);

  while (!stack.empty()) {
    const auto [u, decision] = stack.back();
    stack.pop_back();
    if (decision == kRetain) {
      result.selection.keep[u] = 1;
      // Top-k children stay retained; the rest are pruned-down (discarded
      // with all their descendants) — Obs. 3.8(a): a retained node cannot
      // have pruned-up descendants.
      push_retained(forest, k_of, u, scratch.topk, scratch, stack);
    } else {
      for (const NodeId c : forest.children(u)) choose(c);
    }
  }

  Value total = 0;
  for (const NodeId r : forest.roots()) {
    total += std::max(result.t[r], result.m[r]);
  }
  result.value = total;

  POBP_DASSERT(same_value_up_to_order(result.selection.value(forest),
                                      result.value));
}

/// One root's share of the DP: bottom-up over the root's subtree (reverse
/// parents-first order = children before parents), then the top-down
/// decision pass from that root.  Writes only to this subtree's entries of
/// t/m/keep — and, because a node's arena slot lies in its parent's range,
/// only to this subtree's slot_t/slot_m slots — disjoint from every other
/// root task by construction.
void tm_root_task(const Forest& forest, std::size_t k, NodeId root,
                  TmForkTask& task, TmScratch& scratch, TmResult& result) {
  const auto k_of = [k](NodeId) { return k; };
  forest.subtree(root, task.nodes);
  for (std::size_t i = task.nodes.size(); i-- > 0;) {
    tm_visit(forest, k_of, task.nodes[i], task.topk, scratch, result);
  }

  auto& stack = task.stack;
  stack.clear();
  stack.emplace_back(root,
                     result.t[root] >= result.m[root] ? kRetain : kPruneUp);
  while (!stack.empty()) {
    const auto [u, decision] = stack.back();
    stack.pop_back();
    if (decision == kRetain) {
      result.selection.keep[u] = 1;
      push_retained(forest, k_of, u, task.topk, scratch, stack);
    } else {
      for (const NodeId c : forest.children(u)) {
        stack.emplace_back(c, result.t[c] >= result.m[c] ? kRetain
                                                         : kPruneUp);
      }
    }
  }
}

}  // namespace

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

  const std::size_t n = forest.size();
  out.value = 0;
  out.t.assign(n, 0);
  out.m.assign(n, 0);
  out.selection.keep.assign(n, 0);
  scratch.slot_t.assign(forest.child_slot_count(), 0);
  scratch.slot_m.assign(forest.child_slot_count(), 0);

  auto& tasks = scratch.fork_tasks;
  if (tasks.size() < roots.size()) tasks.resize(roots.size());

  // Exceptions must not escape into the pool (fatal by ThreadPool
  // contract): capture per root, rethrow the lowest-indexed one.
  std::vector<std::exception_ptr> errors(roots.size());
  parallel_for(0, roots.size(), [&](std::size_t i) {
    try {
      tm_root_task(forest, k, roots[i], tasks[i], scratch, out);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  Value total = 0;
  for (const NodeId r : roots) {
    total += std::max(out.t[r], out.m[r]);
  }
  out.value = total;

  POBP_DASSERT(same_value_up_to_order(out.selection.value(forest),
                                      out.value));
}

void tm_optimal_bas(const Forest& forest, std::size_t k, TmScratch& scratch,
                    TmResult& out) {
  tm_optimal_bas_impl(forest, [k](NodeId) { return k; }, scratch, out);
}

void tm_optimal_bas(const Forest& forest,
                    std::span<const std::size_t> degree_bounds,
                    TmScratch& scratch, TmResult& out) {
  POBP_ASSERT(degree_bounds.size() == forest.size());
  tm_optimal_bas_impl(forest, [&](NodeId v) { return degree_bounds[v]; },
                      scratch, out);
}

TmResult tm_optimal_bas(const Forest& forest, std::size_t k) {
  TmScratch scratch;
  TmResult result;
  tm_optimal_bas(forest, k, scratch, result);
  return result;
}

TmResult tm_optimal_bas(const Forest& forest,
                        std::span<const std::size_t> degree_bounds) {
  TmScratch scratch;
  TmResult result;
  tm_optimal_bas(forest, degree_bounds, scratch, result);
  return result;
}

}  // namespace pobp
