// The POBP-SRC-* rule pass: token/function/include checks over a scanned
// SourceFile, reporting through diag::Report (text/SARIF render for free).
//
// Rule catalogue (registered in pobp/diag/registry.cpp, rendered in
// docs/LINT.md):
//
//   POBP-SRC-001  naked new/delete/malloc-family outside the allocator
//                 module (allocspy)
//   POBP-SRC-002  allocation-capable calls inside `*_into` producers and
//                 `// POBP_NOALLOC`-marked functions
//   POBP-SRC-003  std::atomic ops without an explicit std::memory_order in
//                 the concurrency-bearing modules (engine, util, solvers)
//   POBP-SRC-004  nondeterminism in result-affecting modules: unseeded
//                 randomness, wall clocks, iteration over unordered
//                 containers
//   POBP-SRC-005  #include crossing the declared layer map
//                 (include_graph.hpp)
//   POBP-SRC-006  throw statements inside `try_*` fault-containment
//                 boundaries
//   POBP-SRC-008  sleep-backoff loops in src/engine/ without a visible
//                 bound (BudgetGuard poll/charge or an attempt cap) — an
//                 unbounded retry spins forever on a persistent fault
//
// Every rule is suppressible at a site with `// POBP-SRC-nnn: reason` on
// the finding's line or the line above.
#pragma once

#include <string>
#include <vector>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/srclint/scanner.hpp"

namespace pobp::srclint {

struct LintOptions {
  /// Restrict to these rule ids (e.g. {"POBP-SRC-003"}); empty = all.
  std::vector<std::string> rules;
};

/// Runs every (selected) POBP-SRC rule on one scanned file.
void lint_source(const SourceFile& file, const LintOptions& options,
                 diag::Report& report);

/// Convenience: scan_file + lint_source.
void lint_file(const std::string& fs_path, std::string rel_path,
               const LintOptions& options, diag::Report& report);

}  // namespace pobp::srclint
