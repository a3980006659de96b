// Arena-based rooted forest with node values (Section 3 of the paper).
//
// Nodes are identified by dense indices into a single arena and children
// are stored in a compressed-sparse-row (CSR) layout: one offsets array and
// one flat child-id array, rebuilt lazily from the parent links.  Because
// ids are assigned parents-first and monotonically, a node's children in
// ascending id order ARE its children in insertion order, so the CSR can be
// derived from `parents_` alone with a counting pass — no per-node child
// vectors, no pointer chasing, and clear() keeps every buffer's capacity so
// a Forest can be rebuilt in place with zero steady-state allocations.
//
// Traversals are iterative — the Appendix-A lower-bound trees instantiated
// by the benchmarks reach millions of nodes — and fill caller-provided
// buffers so hot paths never allocate.
//
// Thread-safety: the CSR is rebuilt lazily on the first child query after a
// mutation.  Call finalize() after construction before sharing a const
// Forest across threads; all further const access is then read-only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pobp/schedule/time.hpp"
#include "pobp/util/assert.hpp"

namespace pobp {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

class Forest {
 public:
  Forest() = default;

  /// Adds a node with the given value under `parent` (kNoNode = new root).
  /// The parent must already exist; ids are assigned in insertion order, so
  /// parents always have smaller ids than their children.
  NodeId add(Value value, NodeId parent = kNoNode) {
    const NodeId id = static_cast<NodeId>(values_.size());
    values_.push_back(value);
    parents_.push_back(parent);
    if (parent == kNoNode) {
      roots_.push_back(id);
    } else {
      POBP_ASSERT_MSG(parent < id, "parent must be added before child");
    }
    csr_valid_ = false;
    return id;
  }

  /// Drops all nodes but keeps every buffer's capacity, so the next build
  /// of a same-or-smaller forest performs no allocations.
  void clear() {
    values_.clear();
    parents_.clear();
    roots_.clear();
    child_offsets_.clear();
    child_ids_.clear();
    csr_valid_ = false;
  }

  /// Pre-grows every buffer for `nodes` nodes (one-time warmup).
  void reserve(std::size_t nodes) {
    values_.reserve(nodes);
    parents_.reserve(nodes);
    child_offsets_.reserve(nodes + 1);
    child_ids_.reserve(nodes);
  }

  /// Rebuilds the CSR child index if any add() happened since the last
  /// build.  Idempotent; called implicitly by the child accessors, but call
  /// it explicitly after construction before sharing the forest across
  /// threads (lazy rebuilds from concurrent const access would race).
  void finalize() const {
    if (!csr_valid_) rebuild_csr();
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  Value value(NodeId v) const { return values_[v]; }
  void set_value(NodeId v, Value val) { values_[v] = val; }
  NodeId parent(NodeId v) const { return parents_[v]; }
  std::span<const NodeId> roots() const { return roots_; }

  /// Children of v in insertion (= ascending id) order, as a view into the
  /// CSR arena.  Stable until the next add() or clear().
  std::span<const NodeId> children(NodeId v) const {
    finalize();
    return {child_ids_.data() + child_offsets_[v],
            child_offsets_[v + 1] - child_offsets_[v]};
  }

  /// Degree of v = number of children (Def. in §3.1).
  std::size_t degree(NodeId v) const {
    finalize();
    return child_offsets_[v + 1] - child_offsets_[v];
  }
  bool is_leaf(NodeId v) const { return degree(v) == 0; }
  bool is_root(NodeId v) const { return parents_[v] == kNoNode; }

  /// True iff `ancestor` is a proper ancestor of `v`.
  bool is_ancestor(NodeId ancestor, NodeId v) const {
    for (NodeId u = parents_[v]; u != kNoNode; u = parents_[u]) {
      if (u == ancestor) return true;
    }
    return false;
  }

  /// Depth of v (roots have depth 0).
  std::size_t depth(NodeId v) const {
    std::size_t d = 0;
    for (NodeId u = parents_[v]; u != kNoNode; u = parents_[u]) ++d;
    return d;
  }

  /// Σ val over all nodes.
  Value total_value() const {
    Value sum = 0;
    for (const Value v : values_) sum += v;
    return sum;
  }

  /// Fills `out` with the nodes in an order where every child precedes its
  /// parent.  Because ids are assigned parents-first, this is simply
  /// descending id order.  `out` is overwritten, not appended to.
  void post_order(std::vector<NodeId>& out) const {
    out.resize(size());
    for (std::size_t i = 0; i < size(); ++i) {
      out[i] = static_cast<NodeId>(size() - 1 - i);
    }
  }

  /// Convenience allocating form (tests / cold paths).
  std::vector<NodeId> post_order() const {
    std::vector<NodeId> out;
    post_order(out);
    return out;
  }

  /// Fills `out` with the nodes of the subtree rooted at v (iterative,
  /// subtree root first, every parent before its descendants).  `out` is
  /// overwritten and doubles as the work-list, so no other scratch is
  /// needed.
  void subtree(NodeId v, std::vector<NodeId>& out) const;

  /// Convenience allocating form (tests / cold paths).
  std::vector<NodeId> subtree(NodeId v) const {
    std::vector<NodeId> out;
    subtree(v, out);
    return out;
  }

  /// Σ val over the subtree rooted at v — single accumulating pass, no
  /// materialized node list.
  Value subtree_value(NodeId v) const;

  /// Number of leaves.
  std::size_t leaf_count() const {
    finalize();
    std::size_t count = 0;
    for (NodeId v = 0; v < size(); ++v) {
      if (is_leaf(v)) ++count;
    }
    return count;
  }

 private:
  void rebuild_csr() const;

  std::vector<Value> values_;
  std::vector<NodeId> parents_;
  std::vector<NodeId> roots_;

  // CSR child index derived from parents_: children of v are
  // child_ids_[child_offsets_[v] .. child_offsets_[v+1]).  Mutable because
  // it is a lazily-maintained cache over the authoritative parents_ array.
  mutable std::vector<NodeId> child_offsets_;
  mutable std::vector<NodeId> child_ids_;
  mutable bool csr_valid_ = false;
};

}  // namespace pobp
