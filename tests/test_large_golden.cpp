// Golden answers of the exact pipeline on large generated instances.
//
// The serve goldens stop at n = 64; these pin n 256–2048, where a greedy
// seed's admission windows absorb many busy periods and the schedule
// forests grow deep.  The corpus is a fixed grid — strict-heavy and
// lax-heavy laxities, k ∈ {1, 2}, 1–3 machines, four sizes — drawn with
// the repository's own generator from fixed seeds.  Each instance pins two
// digests: one of its jobs (so a generator change is told apart from a
// pipeline change) and one of its answer: the schedule CSV, which keeps
// every machine, job, segment and their order, plus the bit patterns of
// value and unbounded value.  A change to any stage of the pipeline that
// alters an answer fails here, naming the instance.
//
// Regenerate only for an intended answer change: the failure message
// prints each digest the current code produces.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "pobp/engine/engine.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/io/csv.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t jobs_digest(const JobSet& jobs) {
  Fnv d;
  for (const Job& j : jobs) {
    d.word(static_cast<std::uint64_t>(j.release));
    d.word(static_cast<std::uint64_t>(j.deadline));
    d.word(static_cast<std::uint64_t>(j.length));
    d.word(std::bit_cast<std::uint64_t>(j.value));
  }
  return d.h;
}

std::uint64_t answer_digest(const ScheduleResult& r) {
  Fnv d;
  d.bytes(io::schedule_to_csv(r.schedule));
  d.word(std::bit_cast<std::uint64_t>(r.value));
  d.word(std::bit_cast<std::uint64_t>(r.unbounded_value));
  return d.h;
}

struct Pinned {
  const char* family;  ///< "strict" (λ ∈ [1, 2.5]) or "lax" (λ ∈ [2, 12])
  std::size_t n;
  std::size_t k;
  std::size_t machines;
  std::uint64_t jobs;
  std::uint64_t answer;
};

// clang-format off
constexpr Pinned kGolden[] = {
    {"strict", 256, 1, 1, 0x8c444034445cc3e3ull, 0xc88bdc5c7ecba448ull},
    {"strict", 256, 1, 2, 0xe1536a841c1120cdull, 0x0d756f5f1e540501ull},
    {"strict", 256, 1, 3, 0x7b04c7069ff70f6aull, 0x8a71cc52dbee5ce3ull},
    {"strict", 256, 2, 1, 0xe8b3d08e231d78ffull, 0x832ac3b21cadcf8eull},
    {"strict", 256, 2, 2, 0x53d960a1de72740dull, 0x9c73b8d530d80df7ull},
    {"strict", 256, 2, 3, 0xba5e5fc545410bd6ull, 0xab36b7e9fba075aeull},
    {"strict", 512, 1, 1, 0xf3fcb41746c4c979ull, 0x6b4329b15ff3e73bull},
    {"strict", 512, 1, 2, 0x84ad44090c40b79aull, 0x7f546b2ae7867036ull},
    {"strict", 512, 1, 3, 0x0d0131776dbffe79ull, 0x6503602cd3957695ull},
    {"strict", 512, 2, 1, 0x5629855012e0a448ull, 0x197eba598ee533edull},
    {"strict", 512, 2, 2, 0x6a77dfa0ba077dfaull, 0xa8f79d9c2828e49aull},
    {"strict", 512, 2, 3, 0x7bf8cec55eaa5a6dull, 0x21bca5a57ebb5a23ull},
    {"strict", 1024, 1, 1, 0x519abf6e51ea5870ull, 0x898c07c389a5f882ull},
    {"strict", 1024, 1, 2, 0x721dd1a8a1dc0c64ull, 0x1a8615f7c2ead295ull},
    {"strict", 1024, 1, 3, 0x9efa19735f5bebd7ull, 0x0fe8b6f8abde2421ull},
    {"strict", 1024, 2, 1, 0x8d80c98572784fd5ull, 0x76cafc52ac569493ull},
    {"strict", 1024, 2, 2, 0x4d93f64122393643ull, 0xf4edca3516ff2732ull},
    {"strict", 1024, 2, 3, 0x9452dd832f5df7a7ull, 0xc5eedb1704848b73ull},
    {"strict", 2048, 1, 1, 0xc7072458a41f4f32ull, 0x887d95925f44b838ull},
    {"strict", 2048, 1, 2, 0x29cf8af88431ae22ull, 0xd1fcbbf7783c18a2ull},
    {"strict", 2048, 1, 3, 0x2385df31fb2d9a02ull, 0xa4d1092a0ab7b2e6ull},
    {"strict", 2048, 2, 1, 0xacc78d724ebe4af2ull, 0x3ba36beeee62d10cull},
    {"strict", 2048, 2, 2, 0x9249ba4f810df445ull, 0x60241922db3807fcull},
    {"strict", 2048, 2, 3, 0x86f6ed7857aadb64ull, 0x1d87a967cca709aeull},
    {"lax", 256, 1, 1, 0x0dc7cf1f8c23c15cull, 0x63416acb5a5cd990ull},
    {"lax", 256, 1, 2, 0x18c2a8965a8c1c33ull, 0x3a98b82424312fc1ull},
    {"lax", 256, 1, 3, 0xb7297c3c6afcc96dull, 0x0f791eb82d1b5ea7ull},
    {"lax", 256, 2, 1, 0xfa988faa94340b15ull, 0x320b11ed22e4b476ull},
    {"lax", 256, 2, 2, 0x649dd684f589ebe4ull, 0x46e459cb4e03795full},
    {"lax", 256, 2, 3, 0x011a9f089cb6331cull, 0xd057ac5ea11b66cbull},
    {"lax", 512, 1, 1, 0x980b3a0269657a7cull, 0x5bdf29db8f8bad47ull},
    {"lax", 512, 1, 2, 0x82d8434a4d909685ull, 0x03b07eb3d3def5a5ull},
    {"lax", 512, 1, 3, 0x8c6258971b50b293ull, 0x526a169d12c7385dull},
    {"lax", 512, 2, 1, 0x47e37bf5b8cbd1f1ull, 0x85c7e32b1f06a73aull},
    {"lax", 512, 2, 2, 0x3221a44aa0c6bb7aull, 0x1f479184ea7f4f0full},
    {"lax", 512, 2, 3, 0xe1ca372dd119dfc5ull, 0x70d194593edcca21ull},
    {"lax", 1024, 1, 1, 0x31be828139fcdf49ull, 0xc681a82477b60fedull},
    {"lax", 1024, 1, 2, 0xf56dae694bac9059ull, 0x5dbecce2383dd730ull},
    {"lax", 1024, 1, 3, 0x57a9e498b6472c00ull, 0x1febbe44091ea806ull},
    {"lax", 1024, 2, 1, 0x9274cd6b93b35515ull, 0x050e0d9fc822a06eull},
    {"lax", 1024, 2, 2, 0x3a27c660ed1fa0e4ull, 0xb3410ce40c1c14c5ull},
    {"lax", 1024, 2, 3, 0xb70c421bd28ce548ull, 0x2c2c862b1820352cull},
    {"lax", 2048, 1, 1, 0x37c2428061317a9eull, 0xce94545b3665cb24ull},
    {"lax", 2048, 1, 2, 0xa9c511d76d69b13eull, 0xebb876e456808af8ull},
    {"lax", 2048, 1, 3, 0xf04523535a26b153ull, 0x6ac5ef17463bb6baull},
    {"lax", 2048, 2, 1, 0xa28bab348397686bull, 0xd13d54219cede9a2ull},
    {"lax", 2048, 2, 2, 0x2c6785a0dfe9abd7ull, 0xfa36dcdf4ab7ca36ull},
    {"lax", 2048, 2, 3, 0xe775856420c9bf85ull, 0x54c7810858217d89ull},
};
// clang-format on

/// One instance of the grid.  The horizon grows with n and the machine
/// count, so every machine keeps a few hundred jobs in long busy periods.
JobSet golden_instance(const Pinned& p) {
  const bool strict = std::string_view(p.family) == "strict";
  Rng rng(0x9e3779b97f4a7c15ull ^ (p.n << 8) ^ (p.k << 4) ^ p.machines ^
          (strict ? 0x100000ull : 0));
  JobGenConfig config;
  config.n = p.n;
  config.max_length = 256;
  config.min_laxity = strict ? 1.0 : 2.0;
  config.max_laxity = strict ? 2.5 : 12.0;
  config.horizon = static_cast<Time>(p.n * 16 * p.machines);
  config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  return random_jobs(config, rng);
}

TEST(LargeGolden, ExactPipelineAnswersArePinned) {
  Session session;
  for (const Pinned& p : kGolden) {
    const JobSet jobs = golden_instance(p);
    const SolveOutcome outcome =
        session.try_solve(jobs, {.k = p.k, .machine_count = p.machines});
    ASSERT_TRUE(outcome.has_value()) << p.family << " n=" << p.n;
    char actual[160];
    std::snprintf(actual, sizeof actual,
                  "{\"%s\", %zu, %zu, %zu, 0x%016llxull, 0x%016llxull},",
                  p.family, p.n, p.k, p.machines,
                  static_cast<unsigned long long>(jobs_digest(jobs)),
                  static_cast<unsigned long long>(answer_digest(outcome.value())));
    EXPECT_EQ(jobs_digest(jobs), p.jobs) << "inputs changed: " << actual;
    EXPECT_EQ(answer_digest(outcome.value()), p.answer)
        << "answer changed: " << actual;
  }
}

}  // namespace
}  // namespace pobp
