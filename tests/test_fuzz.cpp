// Cross-module differential sweeps ("fuzz" tier): every invariant that ties
// two independent implementations together, hammered with random inputs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "pobp/pobp.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/diag/registry.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/io/fuzz.hpp"
#include "pobp/io/manifest.hpp"
#include "pobp/io/wire.hpp"
#include "pobp/flow/migrative.hpp"
#include "pobp/io/forest_csv.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/util/rng.hpp"

#include "json_tape.hpp"  // src/io: the reader's per-thread tape

namespace pobp {
namespace {

// Ordering of the exact solvers on one instance:
//   ALG_k ≤ OPT_k(slots) ≤ OPT∞(B&B) ≤ migrative OPT∞ ≤ total value,
//   and OPT₀(bitmask) ≤ OPT_k for every k ≥ 0.
class SolverChain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverChain, ExactSolversAreConsistentlyOrdered) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    JobGenConfig config;
    config.n = 5;
    config.min_length = 1;
    config.max_length = 5;
    config.max_laxity = 3.0;
    config.horizon = 32;
    config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
    const JobSet jobs = random_jobs(config, rng);
    const auto ids = all_ids(jobs);

    const Value opt0 = opt_zero(jobs, ids).value;
    const auto opt1 = opt_k_slots(jobs, 1, std::size_t{1} << 34);
    const auto opt2 = opt_k_slots(jobs, 2, std::size_t{1} << 34);
    const Value opt_inf = opt_infinity(jobs, ids).value;
    const Value opt_mig2 = opt_infinity_migrative(jobs, ids, 2).value;
    ASSERT_TRUE(opt1 && opt2);

    EXPECT_LE(opt0, *opt1 + 1e-9);
    EXPECT_LE(*opt1, *opt2 + 1e-9);
    EXPECT_LE(*opt2, opt_inf + 1e-9);
    EXPECT_LE(opt_inf, opt_mig2 + 1e-9);
    EXPECT_LE(opt_mig2, jobs.total_value() + 1e-9);

    // The pipeline never beats the matching exact optimum.
    for (const std::size_t k : {0u, 1u, 2u}) {
      const ScheduleResult r = try_schedule_bounded(
          jobs, {.k = k, .seed = ScheduleOptions::Seed::kExact}).value();
      ASSERT_TRUE(validate(jobs, r.schedule, k));
      const Value cap = k == 0 ? opt0 : (k == 1 ? *opt1 : *opt2);
      EXPECT_LE(r.value, cap + 1e-9) << "k=" << k << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverChain,
                         ::testing::Values(301, 302, 303, 304, 305));

// Reduction idempotence: a schedule that is already k-bounded and laminar
// survives the k'-reduction unscathed for every k' ≥ its forest degree.
class ReductionIdempotence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReductionIdempotence, BoundedSchedulesPassThroughLosslessly) {
  Rng rng(GetParam());
  LaminarGenConfig config;
  config.target_jobs = 80;
  config.max_children = 3;  // forest degree ≤ 3
  const LaminarInstance inst = random_laminar_instance(config, rng);

  // With k ≥ max forest degree the optimal k-BAS is the whole forest.
  const ReductionResult r = reduce_to_k_preemptive(inst.jobs, inst.schedule, 3);
  EXPECT_DOUBLE_EQ(r.value, inst.jobs.total_value());
  EXPECT_EQ(r.bounded.job_count(), inst.jobs.size());
  EXPECT_TRUE(validate_machine(inst.jobs, r.bounded, 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionIdempotence,
                         ::testing::Values(311, 312, 313, 314));

// CSV round trips compose with the whole pipeline.
class IoPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoPipeline, SolveOfParsedEqualsSolveOfOriginal) {
  Rng rng(GetParam());
  JobGenConfig config;
  config.n = 40;
  config.max_length = 128;
  config.horizon = 4096;
  config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  const JobSet original = random_jobs(config, rng);
  const JobSet parsed = io::jobs_from_csv(io::jobs_to_csv(original));

  const ScheduleResult a = try_schedule_bounded(original, {.k = 1}).value();
  const ScheduleResult b = try_schedule_bounded(parsed, {.k = 1}).value();
  EXPECT_DOUBLE_EQ(a.value, b.value);  // deterministic pipeline

  // And the schedule itself round-trips losslessly.
  const Schedule round =
      io::schedule_from_csv(io::schedule_to_csv(a.schedule));
  EXPECT_TRUE(validate(original, round, 1));
  EXPECT_DOUBLE_EQ(round.total_value(original), a.value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoPipeline,
                         ::testing::Values(321, 322, 323));

// Forest CSV round trips preserve TM results exactly.
class ForestIo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForestIo, TmValueSurvivesRoundTrip) {
  Rng rng(GetParam());
  ForestGenConfig config;
  config.nodes = 300;
  config.max_degree = 5;
  config.value_dist = ForestGenConfig::ValueDist::kHeavyTail;
  const Forest original = random_forest(config, rng);
  const Forest parsed = io::forest_from_csv(io::forest_to_csv(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (const std::size_t k : {1u, 2u}) {
    EXPECT_DOUBLE_EQ(tm_optimal_bas(parsed, k).value,
                     tm_optimal_bas(original, k).value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestIo, ::testing::Values(331, 332));

// Determinism: the full pipeline is a pure function of its inputs.
TEST(Determinism, SchedulingTwiceGivesIdenticalSchedules) {
  Rng rng(341);
  JobGenConfig config;
  config.n = 60;
  config.max_length = 128;
  config.horizon = 4096;
  const JobSet jobs = random_jobs(config, rng);
  const ScheduleResult a = try_schedule_bounded(jobs, {.k = 2, .machine_count = 2}).value();
  const ScheduleResult b = try_schedule_bounded(jobs, {.k = 2, .machine_count = 2}).value();
  EXPECT_EQ(io::schedule_to_csv(a.schedule), io::schedule_to_csv(b.schedule));
}

// Validator agreement: anything EDF emits validates; anything the validator
// rejects, EDF could not have emitted (spot-checked by mutation).
class ValidatorMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValidatorMutation, RandomMutationsOfFeasibleSchedulesAreCaught) {
  Rng rng(GetParam());
  JobGenConfig config;
  config.n = 25;
  config.max_length = 64;
  config.max_laxity = 2.0;  // tight windows: most mutations are infeasible
  config.horizon = 2048;
  const JobSet jobs = random_jobs(config, rng);
  const MachineSchedule ms = greedy_infinity(jobs, all_ids(jobs));
  ASSERT_TRUE(validate_machine(jobs, ms));
  if (ms.empty()) GTEST_SKIP();

  int caught = 0;
  int mutations = 0;
  for (int trial = 0; trial < 60; ++trial) {
    // Rebuild the schedule with one random segment shifted.
    MachineSchedule mutated;
    const std::size_t victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ms.job_count()) - 1));
    const Time shift = rng.uniform_int(1, 40) * (rng.bernoulli(0.5) ? 1 : -1);
    bool changed = false;
    for (std::size_t a = 0; a < ms.assignments().size(); ++a) {
      Assignment copy = ms.assignments()[a];
      if (a == victim && !copy.segments.empty()) {
        copy.segments.back().begin += shift;
        copy.segments.back().end += shift;
        changed = true;
      }
      // Normalization inside add() may abort on pathological overlaps;
      // guard with the pre-check used by add().
      mutated.add(std::move(copy));
    }
    if (!changed) continue;
    ++mutations;
    caught += !validate_machine(jobs, mutated).ok;
  }
  // Most random shifts in a tight, busy schedule must be rejected.
  EXPECT_GT(caught * 2, mutations) << caught << "/" << mutations;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorMutation,
                         ::testing::Values(351, 352, 353));

// IO robustness fuzz: the loaders are fed randomly mutated inputs via the
// shared io::fuzz_mutate_line operator set (also used by `pobp chaos`).
// The throwing API may only ever raise io::ParseError; the try_ API never
// throws at all (rule-tagged report instead); neither may abort.  The two
// APIs must also agree on accept/reject.
std::string mutate(std::string text, Rng& rng) {
  return io::fuzz_mutate_line(std::move(text), rng);
}

class IoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzz, MutatedJobsCsvNeverAbortsAndApisAgree) {
  Rng rng(GetParam());
  JobGenConfig config;
  config.n = 12;
  config.max_length = 64;
  config.horizon = 1024;
  const std::string good = io::jobs_to_csv(random_jobs(config, rng));

  for (int trial = 0; trial < 300; ++trial) {
    const std::string csv = trial == 0 ? good : mutate(good, rng);

    const auto outcome = io::try_jobs_from_csv(csv);
    if (!outcome.has_value()) {
      EXPECT_FALSE(outcome.error().ok());
      EXPECT_FALSE(outcome.error().rule_ids().empty());
    }

    bool threw = false;
    try {
      const JobSet parsed = io::jobs_from_csv(csv);
      if (outcome.has_value()) {
        EXPECT_EQ(parsed.size(), outcome->size());
      }
    } catch (const io::ParseError&) {
      threw = true;
    }  // any other exception type escapes and fails the test
    EXPECT_EQ(outcome.has_value(), !threw) << "APIs disagree on:\n" << csv;
  }
}

TEST_P(IoFuzz, MutatedJsonlNeverAbortsAndApisAgree) {
  Rng rng(GetParam() + 1000);
  const std::string good =
      "{\"name\": \"a\", \"jobs\": [[0,10,4,5.0],[2,7,3,2.5]]}\n"
      "{\"jobs\": [{\"release\":0,\"deadline\":30,\"length\":10,"
      "\"value\":3}]}\n";

  for (int trial = 0; trial < 300; ++trial) {
    const std::string jsonl = trial == 0 ? good : mutate(good, rng);

    const std::vector<io::InstanceOutcome> outcomes =
        io::try_instances_from_jsonl(jsonl);
    bool all_ok = true;
    for (const io::InstanceOutcome& instance : outcomes) {
      if (instance.jobs.has_value()) continue;
      all_ok = false;
      EXPECT_FALSE(instance.jobs.error().ok());
    }

    bool threw = false;
    try {
      const auto parsed = io::instances_from_jsonl(jsonl);
      EXPECT_EQ(parsed.size(), outcomes.size());
    } catch (const io::ParseError&) {
      threw = true;
    }
    EXPECT_EQ(all_ok, !threw) << "APIs disagree on:\n" << jsonl;
  }
}

TEST_P(IoFuzz, MutatedWireFramesNeverThrowAndRejectWithRules) {
  Rng rng(GetParam() + 3000);
  const std::string good =
      "{\"id\": \"req-1\", \"tenant\": \"acme\", \"k\": 1, \"machines\": 2,"
      " \"deadline_ms\": 50, \"jobs\": [[0,10,4,5.0],[2,7,3,2.5]],"
      " \"schedule\": true}";

  for (int trial = 0; trial < 300; ++trial) {
    const std::string line = trial == 0 ? good : mutate(good, rng);
    // The wire boundary must never throw, whatever the bytes: a rejection
    // is an in-band rule-tagged report that the CLI turns into an error
    // frame.
    const auto outcome = io::try_parse_serve_request(line, 7);
    if (!outcome.has_value()) {
      EXPECT_FALSE(outcome.error().ok());
      EXPECT_FALSE(outcome.error().rule_ids().empty());
    } else if (trial == 0) {
      EXPECT_EQ(outcome->id, "req-1");
      EXPECT_EQ(outcome->jobs.size(), 2u);
    }
  }
}

TEST(WireHardening, OversizedLineIsRejectedBeforeParsing) {
  // A line past the ceiling must come back POBP-IO-001 without being
  // scanned — even when its contents would otherwise parse.
  const std::string big =
      "{\"jobs\": [[0,10,4,5.0]], \"id\": \"" + std::string(256, 'x') + "\"}";
  const auto rejected = io::try_parse_serve_request(big, 1, 64);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().count(diag::rules::kIoParse), 1u);

  // 0 = unlimited, and the default ceiling admits normal requests.
  EXPECT_TRUE(io::try_parse_serve_request(big, 1, 0).has_value());
  EXPECT_TRUE(io::try_parse_serve_request(big, 1).has_value());
}

// The serve loop's line reader keeps at most the ceiling of a line: a
// multi-MiB line never grows the buffer past the cap, is reported at its
// full length, and the frame after it still parses.
TEST(WireHardening, ReaderKeepsAnOversizedLineWithinTheCap) {
  const std::size_t cap = io::kDefaultMaxLineBytes;
  const std::size_t huge = 3 * cap + 17;
  const std::string good = "{\"id\":\"after\",\"jobs\":[[0,10,4,5.0]]}";
  std::istringstream in("{\"id\":\"" + std::string(huge - 9, 'x') + "\"}\n" +
                        good + "\n");
  std::string line;

  const auto big = io::read_request_line(in, cap, line);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->bytes, huge);
  EXPECT_FALSE(big->skip);
  EXPECT_EQ(line.size(), cap);
  EXPECT_LE(line.capacity(), cap + 1);
  const diag::Report report = io::oversized_line_report(1, big->bytes, cap);
  EXPECT_EQ(report.count(diag::rules::kIoParse), 1u);
  EXPECT_NE(diag::to_json(report).find("\"bytes\":\"" +
                                       std::to_string(huge) + "\""),
            std::string::npos)
      << diag::to_json(report);

  const auto next = io::read_request_line(in, cap, line);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->bytes, good.size());
  EXPECT_EQ(line, good);
  EXPECT_LE(line.capacity(), cap + 1);
  const auto parsed = io::try_parse_serve_request(line, 2, cap);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, "after");

  EXPECT_FALSE(io::read_request_line(in, cap, line).has_value());
}

// Blank and '#' lines are skipped on their first byte other than ' ',
// '\t' and '\r', even past the cap; 0 keeps whole lines; a last line
// without a newline still counts, as with std::getline.
TEST(WireHardening, ReaderSkipRuleAndUnlimitedCap) {
  const std::string spaces(300, ' ');
  std::istringstream in("\n \t\r\n" + spaces + "# note\n" + spaces +
                        "{\"jobs\":[]}\n  #x\n{\"id\":\"last\"}");
  std::string line;
  const auto read = [&](std::size_t cap) {
    const auto r = io::read_request_line(in, cap, line);
    EXPECT_TRUE(r.has_value());
    return r.value_or(io::RequestLine{});
  };
  EXPECT_TRUE(read(256).skip);
  EXPECT_TRUE(read(256).skip);
  const io::RequestLine comment = read(256);
  EXPECT_TRUE(comment.skip);
  EXPECT_EQ(comment.bytes, 306u);
  EXPECT_EQ(line, std::string(256, ' '));
  const io::RequestLine frame = read(256);
  EXPECT_FALSE(frame.skip);
  EXPECT_EQ(frame.bytes, 311u);
  EXPECT_TRUE(read(0).skip);
  const io::RequestLine last = read(0);
  EXPECT_FALSE(last.skip);
  EXPECT_EQ(line, "{\"id\":\"last\"}");
  EXPECT_FALSE(io::read_request_line(in, 0, line).has_value());
}

// The reader scans in chunks; lines of every length around the chunk size
// read as std::getline reads them (cap 0), or as their first `cap` bytes
// with the full length counted.
TEST(WireHardening, ReaderMatchesGetlineAcrossChunkBoundaries) {
  std::string text;
  for (const std::size_t n : {0u, 1u, 4094u, 4095u, 4096u, 4097u, 8190u,
                              8191u, 8192u, 12289u}) {
    text += std::string(n, static_cast<char>('a' + n % 26)) + '\n';
  }
  text += std::string(4095, 'z');  // a last line without a newline
  for (const std::size_t cap : {std::size_t{0}, std::size_t{5000}}) {
    std::istringstream want(text);
    std::istringstream got(text);
    std::string expected;
    std::string line;
    while (std::getline(want, expected)) {
      const auto read = io::read_request_line(got, cap, line);
      ASSERT_TRUE(read.has_value()) << expected.size();
      EXPECT_EQ(read->bytes, expected.size());
      EXPECT_EQ(line, cap == 0 ? expected : expected.substr(0, cap));
    }
    EXPECT_FALSE(io::read_request_line(got, cap, line).has_value());
  }
}

TEST(WireHardening, DeeplyNestedJsonIsRejectedNotOverflowed) {
  // 4096 nested arrays would previously recurse 4096 frames deep in the
  // JSON reader; the depth guard turns that into an in-band rejection.
  std::string line = "{\"jobs\": ";
  for (int i = 0; i < 4096; ++i) line += '[';
  for (int i = 0; i < 4096; ++i) line += ']';
  line += '}';
  const auto outcome = io::try_parse_serve_request(line, 1, 0);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().count(diag::rules::kIoParse), 1u);
}

TEST(WireHardening, TruncatedFramesAreRejectedNotCrashed) {
  const std::string good =
      "{\"id\": \"req-1\", \"jobs\": [[0,10,4,5.0],[2,7,3,2.5]]}";
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const auto outcome =
        io::try_parse_serve_request(good.substr(0, cut), cut + 1);
    ASSERT_FALSE(outcome.has_value()) << "prefix length " << cut;
    EXPECT_FALSE(outcome.error().rule_ids().empty());
  }
}

TEST(WireHardening, MaximalFrameParsesAndLeavesNoTapePinned) {
  // A frame of exactly the default 1 MiB cap, packed with jobs: it parses,
  // and the tape it needed (about five tokens per job) is released rather
  // than kept by this thread for its next line.  So is the tape of the
  // same frame cut short, which fails mid-parse.
  const std::string job = "[0,10,4,5.5]";
  std::string line = "{\"id\":\"big\",\"jobs\":[" + job;
  std::size_t jobs = 1;
  for (; line.size() + 1 + job.size() + 2 <= io::kDefaultMaxLineBytes; ++jobs) {
    line += ',' + job;
  }
  line += "]}";
  line.resize(io::kDefaultMaxLineBytes, ' ');
  ASSERT_GT(5 * jobs, io::detail::kRetainedTapeTokens);

  const auto outcome = io::try_parse_serve_request(line, 1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->jobs.size(), jobs);
  EXPECT_LE(io::detail::tape_capacity(), io::detail::kRetainedTapeTokens);

  const std::string cut = line.substr(0, line.size() / 2);
  const auto rejected = io::try_parse_serve_request(cut, 2);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().count(diag::rules::kIoParse), 1u);
  EXPECT_LE(io::detail::tape_capacity(), io::detail::kRetainedTapeTokens);

  // An ordinary frame afterwards parses onto a tape that is kept.
  const auto small =
      io::try_parse_serve_request("{\"jobs\":[[0,10,4,5.0],[2,7,3,2.5]]}", 3);
  ASSERT_TRUE(small.has_value());
  EXPECT_GT(io::detail::tape_capacity(), 0u);
  EXPECT_LE(io::detail::tape_capacity(), io::detail::kRetainedTapeTokens);
}

TEST_P(IoFuzz, MutatedManifestTextNeverThrows) {
  Rng rng(GetParam() + 2000);
  const std::string good = "a.csv\n# comment\nsub/dir/b.csv\n\n/abs/c.csv\n";
  for (int trial = 0; trial < 200; ++trial) {
    // manifest_paths is pure path splitting: no defect may ever throw.
    (void)io::manifest_paths(mutate(good, rng), "base");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzz, ::testing::Values(361, 362, 363));

}  // namespace
}  // namespace pobp
