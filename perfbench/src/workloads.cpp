#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"

namespace perfbench {
namespace {

// Arrival rates, fixed per workload: about a fifth of the rate at which
// the one-worker serve path saturates on a quiet 4-vCPU host, so that a
// host twice as slow still runs them below half of saturation (README.md,
// "Rates").  Open loop: the send schedule does not slow down when the
// engine does.
constexpr double kServeSmallRate = 2500;
constexpr double kServeCacheRate = 400;

constexpr std::size_t kTenants = 4;
// Warm-up requests per set-up: enough CPU work that set-up time is not
// dominated by thread wake-ups.
constexpr std::size_t kSmallWarmup = 1024;
constexpr std::size_t kCacheWarmup = 256;

struct JobShape {
  pobp::Duration max_length = 128;
  pobp::Time horizon = 4096;
  double min_laxity = 1;
  double max_laxity = 8;
};

/// A serve job: uniform length, uniform laxity, a whole-number value of
/// random density (whole numbers survive the JSON round trip exactly).
pobp::Job random_job(Rng& rng, const JobShape& shape) {
  pobp::Job j;
  j.length = rng.range(1, shape.max_length);
  const double spread = shape.max_laxity - shape.min_laxity;
  const double lambda = shape.min_laxity + rng.uniform01() * spread;
  const auto window = std::max<pobp::Duration>(
      j.length, static_cast<pobp::Duration>(
                    std::ceil(lambda * static_cast<double>(j.length))));
  j.release = rng.range(0, std::max<pobp::Time>(0, shape.horizon - window));
  j.deadline = j.release + window;
  const double scale = std::exp2(rng.uniform01() * 8.0 - 4.0);
  j.value = std::max(1.0, std::round(static_cast<double>(j.length) * scale));
  return j;
}

/// A Fisher–Yates permutation of [0, n).
std::vector<std::size_t> permutation(Rng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

/// n jobs whose lengths (log-uniform), laxities and densities are
/// stratified — each takes the middle of one of n equal steps of its range,
/// and the three are paired by independent random permutations — so two
/// seeds give instances of nearly the same work; releases are uniform.
std::vector<pobp::Job> stratified_jobs(Rng& rng, std::size_t n,
                                       const JobShape& shape) {
  const std::vector<std::size_t> lengths = permutation(rng, n);
  const std::vector<std::size_t> laxities = permutation(rng, n);
  const std::vector<std::size_t> densities = permutation(rng, n);
  const double log_max = std::log(static_cast<double>(shape.max_length));
  const auto step = [n](std::size_t i) {
    return (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  };
  std::vector<pobp::Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    pobp::Job& j = jobs[i];
    j.length = std::max<pobp::Duration>(
        1, static_cast<pobp::Duration>(std::exp(step(lengths[i]) * log_max)));
    const double lambda =
        shape.min_laxity +
        step(laxities[i]) * (shape.max_laxity - shape.min_laxity);
    const auto window = std::max<pobp::Duration>(
        j.length, static_cast<pobp::Duration>(
                      std::ceil(lambda * static_cast<double>(j.length))));
    j.release = rng.range(0, std::max<pobp::Time>(0, shape.horizon - window));
    j.deadline = j.release + window;
    j.value = static_cast<double>(j.length) *
              std::exp2(step(densities[i]) * 8.0 - 4.0);
  }
  return jobs;
}

std::string jobs_json(const std::vector<pobp::Job>& jobs) {
  std::string out = "[";
  char buf[96];
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const pobp::Job& j = jobs[i];
    std::snprintf(buf, sizeof buf, "%s[%lld,%lld,%lld,%.17g]", i ? "," : "",
                  static_cast<long long>(j.release),
                  static_cast<long long>(j.deadline),
                  static_cast<long long>(j.length), j.value);
    out += buf;
  }
  out += "]";
  return out;
}

/// Everything of a request frame after its id: `"tenant":...}`.
struct Body {
  std::vector<pobp::Job> jobs;
  std::size_t tenant = 0;
  std::size_t k = 1;
  std::size_t machines = 1;
  bool degrade = false;   ///< tight max_ops with "degrade":true
  bool schedule = false;  ///< echo the schedule CSV
  std::string text;

  void render() {
    char head[160];
    std::snprintf(head, sizeof head, "\"tenant\":\"t%zu\",\"k\":%zu,"
                  "\"machines\":%zu,", tenant, k, machines);
    text = head;
    text += "\"jobs\":" + jobs_json(jobs);
    // A budget of 8 operations fires inside the seed of every instance
    // here (n >= 12), so these requests are answered deterministically on
    // the approximate path.
    if (degrade) text += ",\"max_ops\":8,\"degrade\":true";
    if (schedule) text += ",\"schedule\":true";
    text += "}";
  }
};

std::string frame(const char* prefix, std::size_t i, const Body& body) {
  char head[48];
  std::snprintf(head, sizeof head, "{\"id\":\"%s%zu\",", prefix, i);
  return head + body.text;
}

/// The generator of one workload's inputs.  The seed goes through the
/// mixer first: seeding the state linearly would make seed s + 1 give the
/// stream of seed s shifted by one draw, so nearby seeds would give nearly
/// the same inputs.
Rng workload_rng(std::uint64_t seed, std::uint64_t workload) {
  Rng mix(seed * 4 + workload);
  return Rng(mix.next());
}

std::vector<double> poisson_schedule(Rng& rng, double rate, double seconds) {
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= seconds) break;
    at.push_back(t);
  }
  if (at.empty()) at.push_back(0);
  return at;
}

Body small_body(Rng& rng) {
  Body b;
  const JobShape shape;  // golden corpus: max_length 128, horizon 4096
  const auto n = static_cast<std::size_t>(rng.range(12, 64));
  for (std::size_t i = 0; i < n; ++i) b.jobs.push_back(random_job(rng, shape));
  b.tenant = rng.below(kTenants);
  const double u = rng.uniform01();
  b.k = u < 0.15 ? 0 : (u < 0.25 ? 2 : 1);
  b.machines = static_cast<std::size_t>(rng.range(1, 3));
  b.degrade = rng.uniform01() < 0.10;
  b.schedule = rng.uniform01() < 0.25;
  b.render();
  return b;
}

JobShape cache_shape() {
  JobShape shape;
  shape.horizon = 8192;
  return shape;
}

/// The `index`-th fresh serve_cache instance.  Its n (100–300) follows
/// the golden-ratio sequence rather than the seed: the earliest instances
/// draw most of the repeats and near-duplicates, so with seeded sizes the
/// sizes of a few hot instances moved CPU per request by about a tenth
/// between seeds.
Body cache_body(Rng& rng, std::size_t index) {
  Body b;
  const JobShape shape = cache_shape();
  const double f =
      std::fmod(0.5 + static_cast<double>(index) * 0.6180339887498949, 1.0);
  const auto n = 100 + static_cast<std::size_t>(f * 201);
  for (std::size_t i = 0; i < n; ++i) b.jobs.push_back(random_job(rng, shape));
  b.tenant = rng.below(kTenants);
  b.k = 1;
  b.machines = 2;
  b.schedule = rng.uniform01() < 0.10;
  b.render();
  return b;
}

/// Zipf-like rank in [0, count): log-uniform, so rank r is drawn with
/// probability ~ 1 / r and the earliest instances stay the most popular.
std::size_t zipf_rank(Rng& rng, std::size_t count) {
  const double r =
      std::exp(rng.uniform01() * std::log(static_cast<double>(count)));
  return std::min(count - 1, static_cast<std::size_t>(r) - 1);
}

void digest_schedule(ServeWorkload& w) {
  Digest d;
  for (const ServeRequestSpec& r : w.requests) {
    d.add_double(r.send_at_s);
    d.add_bytes(r.line);
  }
  w.schedule_digest = d.h;
}

}  // namespace

ServeWorkload make_serve_small(std::uint64_t seed, double seconds) {
  ServeWorkload w;
  w.params.rate = kServeSmallRate;
  Rng rng = workload_rng(seed, 1);
  const std::vector<double> at = poisson_schedule(rng, w.params.rate, seconds);
  w.requests.reserve(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) {
    const Body b = small_body(rng);
    w.requests.push_back({frame("r", i, b), static_cast<std::uint32_t>(i),
                          at[i]});
  }
  w.bodies = at.size();
  for (std::size_t i = 0; i < kSmallWarmup; ++i) {
    w.warmup.push_back(frame("warm", i, small_body(rng)));
  }
  digest_schedule(w);
  return w;
}

ServeWorkload make_serve_cache(std::uint64_t seed, double seconds) {
  ServeWorkload w;
  w.params.rate = kServeCacheRate;
  w.params.cache = true;
  Rng rng = workload_rng(seed, 2);
  const std::vector<double> at = poisson_schedule(rng, w.params.rate, seconds);
  std::vector<Body> bodies;
  std::size_t fresh = 0;
  w.requests.reserve(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double u = rng.uniform01();
    std::size_t body = bodies.size();
    if (!bodies.empty() && u < 0.45) {
      body = zipf_rank(rng, bodies.size());
      ++w.exact_repeats;
    } else if (!bodies.empty() && u < 0.65) {
      // Near-duplicate: 1–3 jobs of a popular earlier instance replaced,
      // n unchanged, so the cache can offer it as a delta neighbour.
      Body mutated = bodies[zipf_rank(rng, bodies.size())];
      const auto changes = static_cast<std::size_t>(rng.range(1, 3));
      for (std::size_t c = 0; c < changes; ++c) {
        mutated.jobs[rng.below(mutated.jobs.size())] =
            random_job(rng, cache_shape());
      }
      mutated.tenant = rng.below(kTenants);
      mutated.render();
      bodies.push_back(std::move(mutated));
      ++w.near_duplicates;
    } else {
      bodies.push_back(cache_body(rng, fresh++));
    }
    w.requests.push_back({frame("r", i, bodies[body]),
                          static_cast<std::uint32_t>(body), at[i]});
  }
  w.bodies = bodies.size();
  for (std::size_t i = 0; i < kCacheWarmup; ++i) {
    w.warmup.push_back(frame("warm", i, cache_body(rng, i)));
  }
  digest_schedule(w);
  return w;
}

std::size_t BatchWorkload::instance_count() const {
  std::size_t n = 0;
  for (const BatchGroup& g : groups) n += g.instances.size();
  return n;
}

BatchWorkload make_batch_large(std::uint64_t seed) {
  constexpr std::size_t kInstances = 48;
  constexpr double kMinN = 256;
  constexpr double kMaxN = 2048;
  BatchWorkload w;
  Rng rng = workload_rng(seed, 3);

  // Three (k, machines) settings cover k in {1, 2} and machines in
  // {1, 2, 3}; 16 instances per engine batch leave room for stealing.
  static constexpr std::size_t kSettings[][2] = {{1, 1}, {2, 2}, {1, 3}};
  for (const auto& [k, m] : kSettings) {
    BatchGroup g;
    g.k = k;
    g.machines = m;
    w.groups.push_back(std::move(g));
  }
  // Sizes sit at the middles of 48 equal steps of the log range and are
  // dealt round-robin to the groups, so every group and the whole corpus
  // keep the same sizes whatever the seed.  Each group lists them in
  // ascending order, the same for every seed: a static split would hand
  // one worker all the large instances, so stealing decides the pass time.
  const std::size_t groups = w.groups.size();
  const std::size_t per_group = kInstances / groups;
  Digest d;
  for (std::size_t g = 0; g < groups; ++g) {
    BatchGroup& group = w.groups[g];
    for (std::size_t j = 0; j < per_group; ++j) {
      const std::size_t stratum = g + j * groups;
      const double f = (static_cast<double>(stratum) + 0.5) /
                       static_cast<double>(kInstances);
      const auto n =
          static_cast<std::size_t>(kMinN * std::pow(kMaxN / kMinN, f));
      // Alternate strictness along the strata so each group has both
      // kinds at every size.
      const bool strict = (j + g) % 2 == 0;
      JobShape shape;
      shape.max_length = 256;
      shape.max_laxity = strict ? 2 : 8;
      // The horizon grows with n so that a machine keeps a few hundred to
      // a thousand jobs; 1-machine instances of the larger sizes build
      // schedule forests beyond the TM fork threshold.
      shape.horizon = static_cast<pobp::Time>(n) * 16 *
                      static_cast<pobp::Time>(group.machines);
      std::vector<pobp::Job> jobs = stratified_jobs(rng, n, shape);
      for (const pobp::Job& j : jobs) {
        d.add(static_cast<std::uint64_t>(j.release));
        d.add(static_cast<std::uint64_t>(j.deadline));
        d.add(static_cast<std::uint64_t>(j.length));
        d.add_double(j.value);
      }
      group.instances.emplace_back(std::move(jobs));
    }
  }
  w.input_digest = d.h;
  return w;
}

}  // namespace perfbench
