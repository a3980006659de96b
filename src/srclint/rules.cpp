#include "pobp/srclint/rules.hpp"

#include <algorithm>
#include <array>
#include <string_view>

#include "pobp/diag/registry.hpp"
#include "pobp/srclint/include_graph.hpp"

namespace pobp::srclint {
namespace {

namespace rules = diag::rules;

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_punct(const Token& t, char c) {
  return t.kind == TokenKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}
bool is_ident(const Token& t, std::string_view name) {
  return t.kind == TokenKind::kIdentifier && t.text == name;
}

/// Emits one source-anchored finding unless suppressed at its line.
void emit(const SourceFile& file, diag::Report& report, std::string_view rule,
          std::size_t line, std::size_t column, std::string message) {
  if (file.suppressed(rule, line)) return;
  report.add(std::string(rule), std::move(message),
             diag::Location::at(file.path, line, column));
}

// --- SRC-001: naked allocation ----------------------------------------------

// Files that *implement* the allocation layer: the operator new/delete
// counting hooks.
constexpr std::string_view kAllocAllowlist[] = {
    "src/util/allocspy.cpp",
};

constexpr std::string_view kMallocFamily[] = {
    "malloc", "calloc", "realloc", "free", "strdup", "aligned_alloc",
};

bool malloc_family(std::string_view name) {
  return std::find(std::begin(kMallocFamily), std::end(kMallocFamily),
                   name) != std::end(kMallocFamily);
}

/// True when tokens[i] is a `new`/`delete` *expression* (not `operator
/// new`, `= delete`, `new (std::nothrow)` counts, placement new counts).
bool is_alloc_expression(const std::vector<Token>& toks, std::size_t i) {
  const Token& t = toks[i];
  const bool kw_new = is_ident(t, "new");
  const bool kw_delete = is_ident(t, "delete");
  if (!kw_new && !kw_delete) return false;
  if (i > 0) {
    const Token& prev = toks[i - 1];
    if (is_ident(prev, "operator")) return false;  // declarations/hooks
    if (kw_delete && is_punct(prev, '=')) return false;  // deleted fn
  }
  if (kw_delete) {
    // `delete p` / `delete[] p`: next token must be an identifier, `[`,
    // `(` or `*` — anything else (`;`, `,`, `)`) is the deleted-function
    // grammar position.
    if (i + 1 >= toks.size()) return false;
    const Token& next = toks[i + 1];
    return next.kind == TokenKind::kIdentifier || is_punct(next, '[') ||
           is_punct(next, '(') || is_punct(next, '*');
  }
  return true;
}

void check_naked_alloc(const SourceFile& file, diag::Report& report) {
  for (const std::string_view allowed : kAllocAllowlist) {
    if (file.path == allowed) return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_alloc_expression(toks, i)) {
      emit(file, report, rules::kSrcNakedAlloc, toks[i].line, toks[i].column,
           "naked `" + toks[i].text +
               "` — use containers, smart pointers or an arena "
               "(docs/PERF.md)");
      continue;
    }
    if (toks[i].kind == TokenKind::kIdentifier &&
        malloc_family(toks[i].text) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], '(')) {
      // A call (possibly std::-qualified); declarations like `void
      // free(void*)` would also match but do not occur outside the
      // allocator modules.
      emit(file, report, rules::kSrcNakedAlloc, toks[i].line, toks[i].column,
           "raw `" + toks[i].text + "()` call outside the allocator modules");
    }
  }
}

// --- SRC-002: allocation-capable calls on the hot path ----------------------

constexpr std::string_view kAllocCapable[] = {
    "malloc",      "calloc",      "realloc", "free",
    "strdup",      "make_unique", "make_shared",
};

bool hot_path_function(const FunctionSpan& fn) {
  return fn.noalloc_marked || ends_with(fn.name, "_into");
}

void check_hot_path_alloc(const SourceFile& file, diag::Report& report) {
  const std::vector<Token>& toks = file.tokens;
  for (const FunctionSpan& fn : file.functions) {
    if (!hot_path_function(fn)) continue;
    for (std::size_t i = fn.first_token; i <= fn.last_token && i < toks.size();
         ++i) {
      const Token& t = toks[i];
      bool hit = is_alloc_expression(toks, i);
      if (!hit && t.kind == TokenKind::kIdentifier && i + 1 < toks.size() &&
          is_punct(toks[i + 1], '(')) {
        hit = std::find(std::begin(kAllocCapable), std::end(kAllocCapable),
                        t.text) != std::end(kAllocCapable);
      }
      if (!hit) continue;
      emit(file, report, rules::kSrcHotPathAlloc, t.line, t.column,
           "allocation-capable `" + t.text + "` inside hot-path producer `" +
               fn.name + "` (" +
               (fn.noalloc_marked ? "POBP_NOALLOC-marked" : "*_into contract") +
               ", docs/PERF.md)");
    }
  }
}

// --- SRC-003: implicit seq_cst atomics --------------------------------------

constexpr std::string_view kAtomicScopes[] = {
    "src/engine/", "src/util/", "src/solvers/",
};

constexpr std::string_view kAtomicOps[] = {
    "load",          "store",     "exchange",  "fetch_add",
    "fetch_sub",     "fetch_and", "fetch_or",  "fetch_xor",
    "test_and_set",  "compare_exchange_weak",  "compare_exchange_strong",
};

void check_atomic_orders(const SourceFile& file, diag::Report& report) {
  if (std::none_of(std::begin(kAtomicScopes), std::end(kAtomicScopes),
                   [&](std::string_view scope) {
                     return starts_with(file.path, scope);
                   })) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    if (std::find(std::begin(kAtomicOps), std::end(kAtomicOps),
                  toks[i].text) == std::end(kAtomicOps)) {
      continue;
    }
    // Member call: preceded by `.` or `->` (the `>` of `->`), followed
    // by `(`.
    const bool member = is_punct(toks[i - 1], '.') ||
                        (is_punct(toks[i - 1], '>') && i >= 2 &&
                         is_punct(toks[i - 2], '-'));
    if (!member || !is_punct(toks[i + 1], '(')) continue;
    // Scan the argument list for a memory_order token.
    std::size_t j = i + 1;
    int depth = 0;
    bool has_order = false;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], '(')) ++depth;
      if (is_punct(toks[j], ')') && --depth == 0) break;
      if (toks[j].kind == TokenKind::kIdentifier &&
          starts_with(toks[j].text, "memory_order")) {
        has_order = true;
      }
    }
    if (has_order) continue;
    emit(file, report, rules::kSrcImplicitMemoryOrder, toks[i].line,
         toks[i].column,
         "atomic `" + toks[i].text +
             "` without an explicit std::memory_order (implicit seq_cst "
             "hides the synchronization protocol)");
  }
}

// --- SRC-004: nondeterminism in result-affecting code -----------------------

constexpr std::string_view kDeterministicScopes[] = {
    "src/schedule/", "src/forest/",  "src/bas/",  "src/reduction/",
    "src/lsa/",      "src/flow/",    "src/solvers/", "src/core/",
    "src/engine/",   "src/sim/",     "src/gen/",
};

constexpr std::string_view kNondeterminismBans[] = {
    "rand", "srand", "drand48", "random_device", "system_clock",
};

void check_nondeterminism(const SourceFile& file, diag::Report& report) {
  if (std::none_of(std::begin(kDeterministicScopes),
                   std::end(kDeterministicScopes),
                   [&](std::string_view scope) {
                     return starts_with(file.path, scope);
                   })) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  // Pass 1: banned identifiers, and names of variables declared with an
  // unordered container type (`unordered_map<...> name` after template
  // argument skipping).
  std::vector<std::string> unordered_vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (std::find(std::begin(kNondeterminismBans),
                  std::end(kNondeterminismBans),
                  t.text) != std::end(kNondeterminismBans)) {
      emit(file, report, rules::kSrcNondeterminism, t.line, t.column,
           "`" + t.text +
               "` in result-affecting code breaks the bit-determinism "
               "contract (docs/ENGINE.md); use a seeded pobp::Rng / "
               "steady_clock via the budget layer");
      continue;
    }
    if (t.text != "unordered_map" && t.text != "unordered_set" &&
        t.text != "unordered_multimap" && t.text != "unordered_multiset") {
      continue;
    }
    // Skip the template argument list and take the declared name.
    std::size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], '<')) {
      int angle = 0;
      for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], '<')) ++angle;
        if (is_punct(toks[j], '>') && --angle == 0) {
          ++j;
          break;
        }
      }
    }
    if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
      unordered_vars.push_back(toks[j].text);
    }
  }
  if (unordered_vars.empty()) return;
  // Pass 2: range-for whose range expression names an unordered variable —
  // iteration order feeds results.  `for ( ... : expr )`.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], '(')) continue;
    std::size_t j = i + 1;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], '(')) ++depth;
      if (is_punct(toks[j], ')') && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && colon == 0 && is_punct(toks[j], ':') &&
          !(j > 0 && is_punct(toks[j - 1], ':')) &&
          !(j + 1 < toks.size() && is_punct(toks[j + 1], ':'))) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (toks[k].kind == TokenKind::kIdentifier &&
          std::find(unordered_vars.begin(), unordered_vars.end(),
                    toks[k].text) != unordered_vars.end()) {
        emit(file, report, rules::kSrcNondeterminism, toks[k].line,
             toks[k].column,
             "iteration over unordered container `" + toks[k].text +
                 "` feeds results in hash-table order — not deterministic "
                 "across platforms (docs/ENGINE.md)");
        break;
      }
    }
  }
}

// --- SRC-006: throw inside try_* containment boundaries ---------------------

void check_containment_throw(const SourceFile& file, diag::Report& report) {
  const std::vector<Token>& toks = file.tokens;
  for (const FunctionSpan& fn : file.functions) {
    if (!starts_with(fn.name, "try_")) continue;
    for (std::size_t i = fn.first_token; i <= fn.last_token && i < toks.size();
         ++i) {
      if (!is_ident(toks[i], "throw")) continue;
      emit(file, report, rules::kSrcThrowInContainment, toks[i].line,
           toks[i].column,
           "`throw` inside containment boundary `" + fn.name +
               "` — convert to an Expected/diag::Report outcome "
               "(docs/ROBUSTNESS.md)");
    }
  }
}

// --- SRC-008: unbounded sleep-retry loops in the engine ---------------------

// A retry loop that sleeps between attempts must carry a visible bound:
// either the budget layer (BudgetGuard poll()/charge() raises past the
// deadline) or an attempt cap.  Without one, a persistent fault turns the
// loop into an infinite backoff spin that drain() can never finish.
constexpr std::string_view kEngineScope = "src/engine/";

// Sleeping when *called*: identifier followed by `(`.  Condition-variable
// waits are exempt — they park on a predicate, not a blind clock.
constexpr std::string_view kSleepCalls[] = {
    "nanosleep", "sleep", "sleep_for", "sleep_until", "usleep",
};

/// True when an identifier inside the loop span evidences a bound: a
/// BudgetGuard poll/charge or anything attempt/retry-shaped (`attempt`,
/// `attempts`, `max_attempts`, `max_retries`, `retries_left`, ...).
bool is_retry_bound_marker(std::string_view name) {
  if (name == "poll" || name == "charge") return true;
  return name.find("attempt") != std::string_view::npos ||
         name.find("retries") != std::string_view::npos;
}

/// Token index one past the matching close of the bracket at `open`
/// (`(`/`)` or `{`/`}`), or toks.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open,
                          char open_c, char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_c)) ++depth;
    if (is_punct(toks[i], close_c) && --depth == 0) return i + 1;
  }
  return toks.size();
}

void check_unbounded_retry(const SourceFile& file, diag::Report& report) {
  if (!starts_with(file.path, kEngineScope)) return;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const bool is_for = is_ident(toks[i], "for");
    const bool is_while = is_ident(toks[i], "while");
    if (!is_for && !is_while) continue;
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], '(')) continue;
    // (`} while (...)` of a do-loop degenerates to an empty span here and
    // is skipped — the sleeping body was already scanned as plain tokens.)
    // Header `( ... )`, then either a `{ ... }` body or one statement.
    std::size_t body = skip_balanced(toks, i + 1, '(', ')');
    std::size_t end;
    if (body < toks.size() && is_punct(toks[body], '{')) {
      end = skip_balanced(toks, body, '{', '}');
    } else {
      end = body;
      while (end < toks.size() && !is_punct(toks[end], ';')) ++end;
    }
    // Does the loop body sleep?
    std::size_t sleep_at = 0;
    for (std::size_t j = body; j < end && j + 1 < toks.size(); ++j) {
      if (toks[j].kind == TokenKind::kIdentifier &&
          is_punct(toks[j + 1], '(') &&
          std::find(std::begin(kSleepCalls), std::end(kSleepCalls),
                    toks[j].text) != std::end(kSleepCalls)) {
        sleep_at = j;
        break;
      }
    }
    if (sleep_at == 0) continue;
    // Bounded?  A marker anywhere in the loop span (header included — the
    // induction variable of `for (attempt = 1; ...)` counts).
    bool bounded = false;
    for (std::size_t j = i; j < end && j < toks.size(); ++j) {
      if (toks[j].kind == TokenKind::kIdentifier &&
          is_retry_bound_marker(toks[j].text)) {
        bounded = true;
        break;
      }
    }
    if (bounded) continue;
    emit(file, report, rules::kSrcUnboundedRetry, toks[sleep_at].line,
         toks[sleep_at].column,
         "`" + toks[sleep_at].text +
             "()` retry loop with no visible bound — add a BudgetGuard "
             "poll()/charge() or an attempt cap so a persistent fault "
             "cannot spin forever (docs/ROBUSTNESS.md)");
  }
}

// --- SRC-009: raw ISA intrinsics --------------------------------------------

// The kernels are plain portable C++ (docs/PERF.md): the same source
// builds on every target and gives bit-identical results.  A raw ISA
// intrinsic pins its file to one architecture.

/// True for identifiers shaped like raw ISA intrinsics: x86 `_mm*` calls,
/// `__m128`-family vector types, `__builtin_ia32_*` builtins, and NEON
/// `vld1q_s64`-style load/store names (v + ld/st + lane digit).
bool is_raw_intrinsic(std::string_view name) {
  if (starts_with(name, "_mm") || starts_with(name, "__builtin_ia32_")) {
    return true;
  }
  if (name.size() >= 4 && starts_with(name, "__m") &&
      name[3] >= '0' && name[3] <= '9') {
    return true;  // __m128i, __m256d, __m512 ...
  }
  return name.size() >= 4 &&
         (starts_with(name, "vld") || starts_with(name, "vst")) &&
         name[3] >= '0' && name[3] <= '9';
}

void check_raw_intrinsics(const SourceFile& file, diag::Report& report) {
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::kIdentifier || !is_raw_intrinsic(t.text)) {
      continue;
    }
    emit(file, report, rules::kSrcRawIntrinsics, t.line, t.column,
         "raw ISA intrinsic `" + t.text +
             "` — kernels stay portable C++ so every target builds "
             "them and gets bit-identical results (docs/PERF.md)");
  }
}

// --- SRC-010: implementation-defined hashing on result paths ----------------

// std::hash (and hence the std::unordered_* containers' default hashing)
// is implementation-defined: the same key bytes land in different buckets
// across standard libraries and even library versions.  On the modules
// that produce or key results — the solve pipeline and the engine,
// including the content-addressed solve cache (docs/CACHE.md) — that is a
// cross-build determinism hazard, so default hashing is banned outright;
// the sanctioned alternatives are the flat open-addressing indexes
// (MachineSchedule's job index) and the fully specified mixers in
// engine/cache.cpp.  Pure membership tests whose iteration order is never
// observed may suppress per site.
constexpr std::string_view kResultPathScopes[] = {
    "src/bas/",    "src/core/",      "src/engine/", "src/forest/",
    "src/lsa/",    "src/reduction/", "src/schedule/",
    "src/solvers/",
};

constexpr std::string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_multimap", "unordered_multiset",
    "unordered_set",
};

void check_default_hash(const SourceFile& file, diag::Report& report) {
  if (std::none_of(std::begin(kResultPathScopes),
                   std::end(kResultPathScopes),
                   [&](std::string_view scope) {
                     return starts_with(file.path, scope);
                   })) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (std::find(std::begin(kUnorderedContainers),
                  std::end(kUnorderedContainers),
                  t.text) != std::end(kUnorderedContainers)) {
      emit(file, report, rules::kSrcDefaultHash, t.line, t.column,
           "`std::" + t.text +
               "` default hashing on a result path is "
               "implementation-defined — use a flat open-addressing index "
               "or the specified mixers in engine/cache.cpp "
               "(docs/CACHE.md)");
      continue;
    }
    // `std::hash` specifically: `hash` preceded by `std ::` and followed
    // by `<` (bare member functions or locals named `hash` are fine).
    if (t.text == "hash" && i >= 3 && i + 1 < toks.size() &&
        is_punct(toks[i + 1], '<') && is_punct(toks[i - 1], ':') &&
        is_punct(toks[i - 2], ':') && is_ident(toks[i - 3], "std")) {
      emit(file, report, rules::kSrcDefaultHash, t.line, t.column,
           "`std::hash` on a result path is implementation-defined and "
           "breaks cross-build determinism — use the specified mixers in "
           "engine/cache.cpp (docs/CACHE.md)");
    }
  }
}

}  // namespace

void lint_source(const SourceFile& file, const LintOptions& options,
                 diag::Report& report) {
  const auto enabled = [&](std::string_view rule) {
    return options.rules.empty() ||
           std::find(options.rules.begin(), options.rules.end(), rule) !=
               options.rules.end();
  };
  if (enabled(rules::kSrcNakedAlloc)) check_naked_alloc(file, report);
  if (enabled(rules::kSrcHotPathAlloc)) check_hot_path_alloc(file, report);
  if (enabled(rules::kSrcImplicitMemoryOrder)) {
    check_atomic_orders(file, report);
  }
  if (enabled(rules::kSrcNondeterminism)) check_nondeterminism(file, report);
  if (enabled(rules::kSrcLayering)) check_layering(file, report);
  if (enabled(rules::kSrcThrowInContainment)) {
    check_containment_throw(file, report);
  }
  if (enabled(rules::kSrcUnboundedRetry)) check_unbounded_retry(file, report);
  if (enabled(rules::kSrcRawIntrinsics)) check_raw_intrinsics(file, report);
  if (enabled(rules::kSrcDefaultHash)) check_default_hash(file, report);
}

void lint_file(const std::string& fs_path, std::string rel_path,
               const LintOptions& options, diag::Report& report) {
  const SourceFile file = scan_file(fs_path, std::move(rel_path));
  lint_source(file, options, report);
}

}  // namespace pobp::srclint
