#include "pobp/engine/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "pobp/util/assert.hpp"
#include "pobp/util/table.hpp"

namespace pobp {
namespace {

// Price buckets: a price of exactly 1 (no loss) lands in the first bucket,
// the paper's bounds live in the low single digits, and +inf (total loss)
// lands in the last.
std::vector<double> price_edges() {
  return {1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0};
}

// Per-instance bounded value, geometric (values are unnormalized, so the
// buckets only need to separate orders of magnitude).
std::vector<double> value_edges() {
  return {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6};
}

std::string fmt_double(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";  // JSON-less infinity
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void json_stats(std::ostringstream& os, const char* key,
                const RunningStats& s) {
  os << '"' << key << "\":{\"count\":" << s.count()
     << ",\"mean\":" << fmt_double(s.count() ? s.mean() : 0.0)
     << ",\"min\":" << fmt_double(s.count() ? s.min() : 0.0)
     << ",\"max\":" << fmt_double(s.count() ? s.max() : 0.0)
     << ",\"stddev\":" << fmt_double(s.count() ? s.stddev() : 0.0) << '}';
}

void json_histogram(std::ostringstream& os, const char* key,
                    const Histogram& h) {
  os << '"' << key << "\":{\"edges\":[";
  for (std::size_t i = 0; i < h.edges().size(); ++i) {
    if (i) os << ',';
    os << fmt_double(h.edges()[i]);
  }
  os << "],\"counts\":[";
  for (std::size_t i = 0; i < h.counts().size(); ++i) {
    if (i) os << ',';
    os << h.counts()[i];
  }
  os << "]}";
}

}  // namespace

std::string_view to_string(Stage stage) {
  switch (stage) {
    case Stage::kSeed: return "seed";
    case Stage::kLaminarize: return "laminarize";
    case Stage::kForest: return "forest";
    case Stage::kPrune: return "prune";
    case Stage::kLsa: return "lsa";
    case Stage::kMerge: return "merge";
    case Stage::kValidate: return "validate";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  POBP_ASSERT_MSG(!edges_.empty(), "histogram needs at least one edge");
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    POBP_ASSERT_MSG(edges_[i - 1] < edges_[i], "histogram edges must ascend");
  }
  counts_.assign(edges_.size() + 1, 0);
}

void Histogram::add(double x) {
  std::size_t i = 0;
  while (i < edges_.size() && x >= edges_[i]) ++i;
  ++counts_[i];
}

void Histogram::merge(const Histogram& other) {
  POBP_ASSERT_MSG(edges_ == other.edges_, "histogram edge mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

std::size_t Histogram::total() const {
  std::size_t sum = 0;
  for (const std::size_t c : counts_) sum += c;
  return sum;
}

std::string Histogram::bucket_label(std::size_t i) const {
  POBP_ASSERT(i < counts_.size());
  if (i == 0) return "< " + Table::fmt(edges_.front(), 3);
  if (i == edges_.size()) return ">= " + Table::fmt(edges_.back(), 3);
  return "[" + Table::fmt(edges_[i - 1], 3) + ", " + Table::fmt(edges_[i], 3) +
         ")";
}

EngineMetrics::EngineMetrics()
    : price_histogram(price_edges()), value_histogram(value_edges()) {}

void EngineMetrics::record(const JobSet& jobs, const ScheduleResult& result,
                           const PipelineTimings* timings, double seconds,
                           bool valid) {
  ++instances;
  if (!valid) ++validation_failures;
  jobs_seen += jobs.size();
  jobs_scheduled += result.schedule.job_count();
  value_bounded += result.value;
  value_unbounded += result.unbounded_value;
  for (const MachineSchedule& ms : result.schedule.machines()) {
    for (const Assignment& a : ms.assignments()) {
      preemptions += a.preemptions();
    }
  }
  if (result.degraded) ++degraded_solves;
  const double p = result.price();
  if (std::isinf(p)) {
    ++infinite_prices;
  } else {
    price.add(p);
  }
  price_histogram.add(p);
  value_histogram.add(result.value);
  solve_seconds.add(seconds);
  if (timings == nullptr) return;
  stage_seconds[static_cast<std::size_t>(Stage::kSeed)].add(timings->seed_s);
  stage_seconds[static_cast<std::size_t>(Stage::kLaminarize)].add(
      timings->laminarize_s);
  stage_seconds[static_cast<std::size_t>(Stage::kForest)].add(
      timings->forest_s);
  stage_seconds[static_cast<std::size_t>(Stage::kPrune)].add(
      timings->prune_s);
  stage_seconds[static_cast<std::size_t>(Stage::kLsa)].add(timings->lsa_s);
  stage_seconds[static_cast<std::size_t>(Stage::kMerge)].add(
      timings->merge_s);
  stage_seconds[static_cast<std::size_t>(Stage::kValidate)].add(
      timings->validate_s);
}

void EngineMetrics::record_branches(const CombinedMultiValues& branches) {
  ++alg3_runs;
  if (branches.strict_settled) ++strict_settled;
  if (branches.lax_settled) ++lax_settled;
  strict_machines_copied += branches.strict_machines_copied;
}

void EngineMetrics::merge(const EngineMetrics& other) {
  instances += other.instances;
  validation_failures += other.validation_failures;
  jobs_seen += other.jobs_seen;
  jobs_scheduled += other.jobs_scheduled;
  preemptions += other.preemptions;
  infinite_prices += other.infinite_prices;
  degraded_solves += other.degraded_solves;
  pipeline_faults += other.pipeline_faults;
  deadline_exceeded += other.deadline_exceeded;
  budget_exhausted += other.budget_exhausted;
  retries += other.retries;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_insertions += other.cache_insertions;
  cache_evictions += other.cache_evictions;
  cache_delta_patches += other.cache_delta_patches;
  alg3_runs += other.alg3_runs;
  strict_settled += other.strict_settled;
  lax_settled += other.lax_settled;
  strict_machines_copied += other.strict_machines_copied;
  seed_probes += other.seed_probes;
  value_bounded += other.value_bounded;
  value_unbounded += other.value_unbounded;
  batch_seconds += other.batch_seconds;
  solve_seconds.merge(other.solve_seconds);
  price.merge(other.price);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_seconds[i].merge(other.stage_seconds[i]);
  }
  price_histogram.merge(other.price_histogram);
  value_histogram.merge(other.value_histogram);
}

double EngineMetrics::instances_per_second() const {
  if (batch_seconds <= 0) return 0;
  return static_cast<double>(instances) / batch_seconds;
}

std::string EngineMetrics::to_table() const {
  std::ostringstream os;

  Table summary("engine summary", {"metric", "value"});
  summary.add_row({"instances", Table::fmt(instances)});
  summary.add_row({"validation failures", Table::fmt(validation_failures)});
  summary.add_row({"jobs scheduled / seen", Table::fmt(jobs_scheduled) +
                                                " / " + Table::fmt(jobs_seen)});
  summary.add_row({"value (bounded)", Table::fmt(value_bounded, 6)});
  summary.add_row({"value (unbounded seed)", Table::fmt(value_unbounded, 6)});
  summary.add_row({"preemptions (total)", Table::fmt(preemptions)});
  summary.add_row(
      {"price (mean finite)",
       price.count() ? Table::fmt(price.mean(), 4) : std::string("-")});
  summary.add_row({"price = +inf instances", Table::fmt(infinite_prices)});
  summary.add_row({"degraded solves", Table::fmt(degraded_solves)});
  summary.add_row(
      {"contained faults (pipeline/deadline/budget)",
       Table::fmt(pipeline_faults) + " / " + Table::fmt(deadline_exceeded) +
           " / " + Table::fmt(budget_exhausted)});
  summary.add_row({"retries", Table::fmt(retries)});
  summary.add_row({"cache hits / misses",
                   Table::fmt(cache_hits) + " / " + Table::fmt(cache_misses)});
  summary.add_row({"cache delta patches", Table::fmt(cache_delta_patches)});
  summary.add_row({"cache insertions / evictions",
                   Table::fmt(cache_insertions) + " / " +
                       Table::fmt(cache_evictions)});
  summary.add_row({"alg. 3 runs / strict settled / lax settled",
                   Table::fmt(alg3_runs) + " / " + Table::fmt(strict_settled) +
                       " / " + Table::fmt(lax_settled)});
  summary.add_row({"strict machines copied from full",
                   Table::fmt(strict_machines_copied)});
  summary.add_row(
      {"seed probes: bound rejected / bound accepted / simulated",
       Table::fmt(seed_probes.bound_rejected) + " / " +
           Table::fmt(seed_probes.bound_accepted) + " / " +
           Table::fmt(seed_probes.simulated)});
  summary.add_row({"simulated windows past the sorted ready cap",
                   Table::fmt(seed_probes.past_sorted_cap)});
  summary.add_row({"batch wall time [s]", Table::fmt(batch_seconds, 4)});
  summary.add_row({"instances / second",
                   batch_seconds > 0 ? Table::fmt(instances_per_second(), 2)
                                     : std::string("-")});
  summary.print(os);

  Table stages("per-stage wall time",
               {"stage", "total [s]", "mean [ms]", "max [ms]"});
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const RunningStats& s = stage_seconds[i];
    const double total =
        s.count() ? s.mean() * static_cast<double>(s.count()) : 0.0;
    stages.add_row({std::string(to_string(static_cast<Stage>(i))),
                    Table::fmt(total, 4),
                    Table::fmt(s.count() ? s.mean() * 1e3 : 0.0, 3),
                    Table::fmt(s.count() ? s.max() * 1e3 : 0.0, 3)});
  }
  stages.print(os);

  Table prices("price histogram", {"bucket", "instances"});
  for (std::size_t i = 0; i < price_histogram.counts().size(); ++i) {
    prices.add_row({price_histogram.bucket_label(i),
                    Table::fmt(price_histogram.counts()[i])});
  }
  prices.print(os);

  Table values("value histogram", {"bucket", "instances"});
  for (std::size_t i = 0; i < value_histogram.counts().size(); ++i) {
    values.add_row({value_histogram.bucket_label(i),
                    Table::fmt(value_histogram.counts()[i])});
  }
  values.print(os);

  return os.str();
}

std::string EngineMetrics::to_json() const {
  std::ostringstream os;
  os << "{\"instances\":" << instances
     << ",\"validation_failures\":" << validation_failures
     << ",\"jobs\":{\"seen\":" << jobs_seen
     << ",\"scheduled\":" << jobs_scheduled << '}'
     << ",\"value\":{\"bounded\":" << fmt_double(value_bounded)
     << ",\"unbounded\":" << fmt_double(value_unbounded) << '}'
     << ",\"preemptions\":" << preemptions
     << ",\"infinite_prices\":" << infinite_prices
     << ",\"degraded\":" << degraded_solves
     << ",\"faults\":{\"pipeline\":" << pipeline_faults
     << ",\"deadline\":" << deadline_exceeded
     << ",\"budget\":" << budget_exhausted << ",\"retries\":" << retries
     << '}'
     << ",\"cache\":{\"hits\":" << cache_hits << ",\"misses\":" << cache_misses
     << ",\"insertions\":" << cache_insertions
     << ",\"evictions\":" << cache_evictions
     << ",\"delta_patches\":" << cache_delta_patches << '}'
     << ",\"alg3\":{\"runs\":" << alg3_runs
     << ",\"strict_settled\":" << strict_settled
     << ",\"lax_settled\":" << lax_settled
     << ",\"strict_machines_copied\":" << strict_machines_copied << '}'
     << ",\"seed\":{\"bound_rejected\":" << seed_probes.bound_rejected
     << ",\"bound_accepted\":" << seed_probes.bound_accepted
     << ",\"simulated\":" << seed_probes.simulated
     << ",\"past_sorted_cap\":" << seed_probes.past_sorted_cap << '}'
     << ",\"batch_seconds\":" << fmt_double(batch_seconds)
     << ",\"instances_per_second\":" << fmt_double(instances_per_second())
     << ',';
  json_stats(os, "price", price);
  os << ',';
  json_stats(os, "solve_seconds", solve_seconds);
  os << ",\"stages\":{";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (i) os << ',';
    json_stats(os, std::string(to_string(static_cast<Stage>(i))).c_str(),
               stage_seconds[i]);
  }
  os << "},\"histograms\":{";
  json_histogram(os, "price", price_histogram);
  os << ',';
  json_histogram(os, "value", value_histogram);
  os << "}}";
  return os.str();
}

}  // namespace pobp
