// Unit tests for the pobp::srclint source-analysis pass: the scanner's
// token/comment channels, each POBP-SRC rule firing and staying quiet,
// inline suppressions, and the layer map (docs/LINT.md).
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pobp/diag/registry.hpp"
#include "pobp/srclint/include_graph.hpp"
#include "pobp/srclint/rules.hpp"
#include "pobp/srclint/scanner.hpp"

namespace pobp::srclint {
namespace {

diag::Report lint(std::string path, std::string_view content,
                  std::vector<std::string> rules = {}) {
  const SourceFile file = scan_source(std::move(path), content);
  LintOptions options;
  options.rules = std::move(rules);
  diag::Report report;
  lint_source(file, options, report);
  return report;
}

std::size_t count_rule(const diag::Report& report, std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(report.diagnostics().begin(), report.diagnostics().end(),
                    [&](const auto& d) { return d.rule == rule; }));
}

// --- scanner ----------------------------------------------------------------

TEST(Scanner, TokenizesPastCommentsAndStrings) {
  const SourceFile file = scan_source("src/core/x.cpp",
                                      "// new in a comment\n"
                                      "const char* s = \"new delete\";\n"
                                      "/* malloc(3) */ int n = 0b10'000;\n");
  for (const Token& t : file.tokens) {
    EXPECT_FALSE(t.kind == TokenKind::kIdentifier &&
                 (t.text == "new" || t.text == "delete" || t.text == "malloc"))
        << "literal/comment content leaked into tokens at line " << t.line;
  }
}

TEST(Scanner, RawStringsDoNotLeakTokens) {
  const SourceFile file = scan_source(
      "src/core/x.cpp", "auto s = R\"(new delete rand() )\";\nint y;\n");
  EXPECT_EQ(count_rule(lint("src/core/x.cpp",
                            "auto s = R\"(new delete rand() )\";\n"),
                       diag::rules::kSrcNakedAlloc),
            0u);
  ASSERT_FALSE(file.tokens.empty());
}

TEST(Scanner, RecordsIncludesWithQuoteForm) {
  const SourceFile file =
      scan_source("src/core/x.cpp",
                  "#include \"pobp/diag/diagnostic.hpp\"\n#include <vector>\n");
  ASSERT_EQ(file.includes.size(), 2u);
  EXPECT_EQ(file.includes[0].path, "pobp/diag/diagnostic.hpp");
  EXPECT_FALSE(file.includes[0].angled);
  EXPECT_TRUE(file.includes[1].angled);
}

TEST(Scanner, FindsFunctionSpansAndNoallocMarkers) {
  const SourceFile file = scan_source("src/core/x.cpp",
                                      "// POBP_NOALLOC\n"
                                      "int fast(int n) { return n; }\n"
                                      "void fill_into(int& x) { x = 1; }\n");
  ASSERT_EQ(file.functions.size(), 2u);
  EXPECT_EQ(file.functions[0].name, "fast");
  EXPECT_TRUE(file.functions[0].noalloc_marked);
  EXPECT_EQ(file.functions[1].name, "fill_into");
  EXPECT_FALSE(file.functions[1].noalloc_marked);
}

TEST(Scanner, SuppressionCoversCommentLineAndNextLine) {
  const SourceFile file = scan_source("src/core/x.cpp",
                                      "int a;\n"
                                      "// POBP-SRC-001: reason\n"
                                      "int b;\n"
                                      "int c;\n");
  EXPECT_FALSE(file.suppressed("POBP-SRC-001", 1));
  EXPECT_TRUE(file.suppressed("POBP-SRC-001", 2));
  EXPECT_TRUE(file.suppressed("POBP-SRC-001", 3));
  EXPECT_FALSE(file.suppressed("POBP-SRC-001", 4));
  EXPECT_FALSE(file.suppressed("POBP-SRC-002", 3));
}

// --- rules ------------------------------------------------------------------

TEST(Rules, NakedAllocFires) {
  const diag::Report report =
      lint("src/core/x.cpp", "int* p = new int[4];\ndelete[] p;\n");
  EXPECT_EQ(count_rule(report, diag::rules::kSrcNakedAlloc), 2u);
}

TEST(Rules, AllocAllowlistAndGrammarPositionsStayQuiet) {
  EXPECT_TRUE(lint("src/util/allocspy.cpp", "void* p = malloc(1);\n").ok());
  EXPECT_TRUE(lint("src/core/x.cpp",
                   "struct S { S(const S&) = delete;\n"
                   "  void* operator new(unsigned long); };\n")
                  .ok());
}

TEST(Rules, HotPathAllocFiresOnlyInProducers) {
  const std::string source =
      "void fill_into(V& out) { out.p = new int; }\n"
      "void build(V& out) { out.p = new int; }\n";
  const diag::Report report = lint("src/core/x.cpp", source,
                                   {std::string(diag::rules::kSrcHotPathAlloc)});
  EXPECT_EQ(count_rule(report, diag::rules::kSrcHotPathAlloc), 1u);
}

TEST(Rules, AtomicOrderScopedToConcurrentModules) {
  const std::string source = "int f(A& a) { return a.counter.load(); }\n";
  EXPECT_EQ(count_rule(lint("src/engine/x.cpp", source),
                       diag::rules::kSrcImplicitMemoryOrder),
            1u);
  // Explicit order is clean; out-of-scope modules are exempt.
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "int f(A& a) { return a.c.load(std::memory_order_acquire); }\n")
                  .ok());
  EXPECT_TRUE(lint("src/io/x.cpp", source).ok());
}

TEST(Rules, NondeterminismFlagsBansAndUnorderedIteration) {
  const std::string source =
      "int seed() { return rand(); }\n"
      "void walk(std::unordered_map<int,int> m) {\n"
      "  for (const auto& e : m) { (void)e; }\n"
      "}\n";
  const diag::Report report = lint("src/core/x.cpp", source);
  EXPECT_EQ(count_rule(report, diag::rules::kSrcNondeterminism), 2u);
  // Lookup-only use of an unordered container is fine *for this rule*;
  // the default-hash ban (POBP-SRC-010) owns that site on result paths.
  const diag::Report lookup =
      lint("src/core/x.cpp",
           "int get(std::unordered_map<int,int>& m) { return m[3]; }\n");
  EXPECT_EQ(count_rule(lookup, diag::rules::kSrcNondeterminism), 0u);
  EXPECT_EQ(count_rule(lookup, diag::rules::kSrcDefaultHash), 1u);
}

TEST(Rules, DefaultHashBannedOnResultPaths) {
  const std::string source =
      "std::unordered_map<std::uint64_t, double> memo;\n"
      "std::size_t key(const std::string& s) {\n"
      "  return std::hash<std::string>{}(s);\n"
      "}\n";
  // Two findings: the unordered container and the std::hash instantiation.
  EXPECT_EQ(count_rule(lint("src/engine/x.cpp", source),
                       diag::rules::kSrcDefaultHash),
            2u);
  EXPECT_EQ(count_rule(lint("src/solvers/x.cpp", source),
                       diag::rules::kSrcDefaultHash),
            2u);
  // Out of scope: IO / tools never key results.
  EXPECT_TRUE(lint("src/io/x.cpp", source).ok());
  EXPECT_TRUE(lint("tools/pobp_cli.cpp", source).ok());
  // A qualified non-std `hash` identifier stays quiet.
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "int f() { return my::hash<int>{}(3); }\n")
                  .ok());
  // Site suppression works like every other POBP-SRC rule.
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "// POBP-SRC-010: lookup only; order never observed\n"
                   "std::unordered_map<int, int> memo;\n")
                  .ok());
}

TEST(Rules, LayeringUsesDeclaredMap) {
  EXPECT_EQ(module_of("src/schedule/edf.cpp"), "schedule");
  EXPECT_EQ(module_of("tools/pobp_cli.cpp"), "<app>");
  EXPECT_EQ(module_of("src/include/pobp/pobp.hpp"), "<app>");

  const diag::Report up =
      lint("src/schedule/x.cpp", "#include \"pobp/engine/engine.hpp\"\n");
  EXPECT_EQ(count_rule(up, diag::rules::kSrcLayering), 1u);
  EXPECT_TRUE(
      lint("src/schedule/x.cpp", "#include \"pobp/diag/registry.hpp\"\n").ok());
  EXPECT_TRUE(
      lint("src/engine/x.cpp", "#include \"pobp/core/pobp.hpp\"\n").ok());
}

TEST(Rules, ThrowOnlyFlaggedInsideTryBoundaries) {
  const std::string source =
      "bool try_load(int x) { if (!x) throw 1; return true; }\n"
      "void load(int x) { if (!x) throw 1; }\n";
  const diag::Report report = lint("src/core/x.cpp", source);
  EXPECT_EQ(count_rule(report, diag::rules::kSrcThrowInContainment), 1u);
}

TEST(Rules, UnboundedRetryFlagsSleepLoopsWithoutABound) {
  // A sleep in a loop with no attempt cap and no budget poll is the
  // defect; the same loop bounded either way is clean, and the rule is
  // scoped to src/engine/.
  const std::string unbounded =
      "void spin() {\n"
      "  while (!probe()) {\n"
      "    std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(count_rule(lint("src/engine/x.cpp", unbounded),
                       diag::rules::kSrcUnboundedRetry),
            1u);
  EXPECT_TRUE(lint("src/core/x.cpp", unbounded).ok());  // out of scope

  // Attempt-capped loop: the induction variable is the visible bound.
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "void spin() {\n"
                   "  for (int attempt = 0; attempt < 5; ++attempt) {\n"
                   "    std::this_thread::sleep_for(backoff(attempt));\n"
                   "  }\n"
                   "}\n")
                  .ok());
  // Budget-bounded loop: guard.poll() raises past the deadline.
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "void spin(BudgetGuard& guard) {\n"
                   "  while (!probe()) {\n"
                   "    guard.poll();\n"
                   "    std::this_thread::sleep_for(delay());\n"
                   "  }\n"
                   "}\n")
                  .ok());
  // A sleep outside any loop is not a retry loop.
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "void pause_once() {\n"
                   "  std::this_thread::sleep_for(delay());\n"
                   "}\n")
                  .ok());
  // Condition-variable waits are exempt (predicate-parked, not a blind
  // clock).
  EXPECT_TRUE(lint("src/engine/x.cpp",
                   "void park(CV& cv, L& lk) {\n"
                   "  while (!done()) { cv.wait_for(lk, delay()); }\n"
                   "}\n")
                  .ok());
}

TEST(Rules, RawIntrinsicsBannedOutsideTheSimdWrapper) {
  const std::string source =
      "long f(const long* p) {\n"
      "  __m128i v = _mm_loadu_si128((const __m128i*)p);\n"
      "  return _mm_cvtsi128_si64(v);\n"
      "}\n";
  // There is no SIMD wrapper any more, so "outside" it is every path:
  // four findings each (the two __m128i type uses and the two _mm_*
  // calls), the wrapper's former path included.
  for (const char* path :
       {"src/schedule/kernels.cpp", "src/util/include/pobp/util/simd.hpp",
        "src/util/include/pobp/util/vec.hpp", "tools/x.cpp"}) {
    EXPECT_EQ(count_rule(lint(path, source), diag::rules::kSrcRawIntrinsics),
              4u)
        << path;
  }
  // NEON spellings count too (vld/vst + lane digit).
  EXPECT_EQ(count_rule(lint("src/bas/tm.cpp",
                            "long g(const long* p) {\n"
                            "  return vgetq_lane_s64(vld1q_s64(p), 0);\n"
                            "}\n"),
                       diag::rules::kSrcRawIntrinsics),
            1u);
  // Ordinary identifiers that merely start with v or _ stay quiet.
  EXPECT_TRUE(lint("src/bas/tm.cpp",
                   "int h(int vstep, int _max) { return vstep + _max; }\n")
                  .ok());
}

TEST(Rules, InlineSuppressionSilencesOneRuleAtOneSite) {
  const diag::Report report =
      lint("src/core/x.cpp",
           "int* a = new int;  // POBP-SRC-001: intentional\n"
           "int* b = new int;\n");
  EXPECT_EQ(count_rule(report, diag::rules::kSrcNakedAlloc), 1u);
}

TEST(Rules, FindingsCarrySourceLocations) {
  const diag::Report report = lint("src/core/x.cpp", "int* p = new int;\n");
  ASSERT_EQ(report.diagnostics().size(), 1u);
  const auto& where = report.diagnostics()[0].where;
  ASSERT_TRUE(where.file.has_value());
  EXPECT_EQ(*where.file, "src/core/x.cpp");
  ASSERT_TRUE(where.line.has_value());
  EXPECT_EQ(*where.line, 1u);
}

TEST(Registry, SrcRulesAreCatalogued) {
  for (const std::string_view id :
       {diag::rules::kSrcNakedAlloc, diag::rules::kSrcHotPathAlloc,
        diag::rules::kSrcImplicitMemoryOrder, diag::rules::kSrcNondeterminism,
        diag::rules::kSrcLayering, diag::rules::kSrcThrowInContainment,
        diag::rules::kSrcUnboundedRetry, diag::rules::kSrcRawIntrinsics,
        diag::rules::kSrcDefaultHash}) {
    EXPECT_NE(diag::find_rule(id), nullptr) << id;
  }
}

}  // namespace
}  // namespace pobp::srclint
