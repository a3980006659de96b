#include "pobp/forest/forest.hpp"

namespace pobp {

void Forest::rebuild_csr() const {
  const std::size_t n = values_.size();
  child_offsets_.assign(n + 1, 0);
  // Counting pass: child_offsets_[p + 1] accumulates deg(p)...
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = parents_[v];
    if (p != kNoNode) ++child_offsets_[p + 1];
  }
  // ...prefix-summed into the CSR row starts.
  for (std::size_t v = 1; v <= n; ++v) {
    child_offsets_[v] += child_offsets_[v - 1];
  }
  child_ids_.resize(child_offsets_[n]);
  // Fill pass in ascending v: children land in ascending-id order, which
  // equals insertion order because ids are assigned monotonically.  The
  // offsets array is used as the write cursor and then restored by one
  // backward shift.
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = parents_[v];
    if (p != kNoNode) child_ids_[child_offsets_[p]++] = v;
  }
  for (std::size_t v = n; v-- > 0;) {
    child_offsets_[v + 1] = child_offsets_[v];
  }
  child_offsets_[0] = 0;
  csr_valid_ = true;
}

void Forest::subtree(NodeId v, std::vector<NodeId>& out) const {
  finalize();
  out.clear();
  out.push_back(v);
  // `out` doubles as the work-list: out[i] is expanded in place, so every
  // node is appended exactly once and parents precede their descendants.
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const NodeId c : children(out[i])) out.push_back(c);
  }
}

Value Forest::subtree_value(NodeId v) const {
  finalize();
  Value sum = values_[v];
  // One accumulating DFS pass; the stack holds un-visited nodes only.
  std::vector<NodeId> stack(children(v).begin(), children(v).end());
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    sum += values_[u];
    for (const NodeId c : children(u)) stack.push_back(c);
  }
  return sum;
}

}  // namespace pobp
