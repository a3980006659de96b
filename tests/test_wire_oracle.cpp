// The wire and JSONL readers checked against the tree-building reader they
// replaced, kept here as an oracle the way tests/test_edf.cpp keeps its
// earlier EDF loop: for every input, the same ServeRequest or instance
// (job columns bit for bit) or the same report.  The inputs are the serve
// golden request files, thousands of fuzz mutations of them, the perfbench
// serve workloads' frame shapes, JSONL instance lines, repeated keys and a
// family of number tokens.  The frame writer and schedule_to_csv are
// checked against their printf / ostream forms the same way.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pobp/diag/registry.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/io/csv.hpp"
#include "pobp/io/fuzz.hpp"
#include "pobp/io/manifest.hpp"
#include "pobp/io/wire.hpp"
#include "pobp/util/checked.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

// ----------------------------------------------------------------- oracle ---
// The JSON reader, its two field walkers and the frame writers as they were
// before the token tape: a JsonValue tree per line, every number token
// copied and read by strtod, frames built on an ostringstream.

namespace oracle {

using io::ParseError;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  JsonReader(const std::string& text, std::size_t line)
      : text_(text), line_(line) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(line_, what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of JSON value");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    // Containers recurse; a hostile line of 100k '[' would otherwise
    // overflow the stack.  64 levels is far beyond any legitimate frame.
    if (depth_ >= kMaxDepth) fail("JSON nested deeper than 64 levels");
    ++depth_;
    JsonValue v = value_inner();
    --depth_;
    return v;
  }

  JsonValue value_inner() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      default:
        if (consume_word("true")) {
          v.kind = JsonValue::Kind::kBool;
          v.boolean = true;
          return v;
        }
        if (consume_word("false")) {
          v.kind = JsonValue::Kind::kBool;
          return v;
        }
        if (consume_word("null")) return v;
        return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        default: fail("unsupported string escape");  // \uXXXX included
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return v;
  }

  static constexpr std::size_t kMaxDepth = 64;

  const std::string& text_;
  std::size_t line_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

struct NumericError : ParseError {
  using ParseError::ParseError;
};
struct JobDomainError : ParseError {
  using ParseError::ParseError;
};

std::int64_t to_tick(const JsonValue& v, const char* what, std::size_t line) {
  if (v.kind != JsonValue::Kind::kNumber) {
    throw ParseError(line, std::string(what) + " must be a number");
  }
  const std::optional<std::int64_t> tick = double_to_tick(v.number);
  if (!tick) {
    throw NumericError(line,
                       std::string(what) + " must be a finite integer tick");
  }
  return *tick;
}

Job job_from_json(const JsonValue& v, std::size_t line) {
  Job job;
  if (v.kind == JsonValue::Kind::kArray) {
    if (v.items.size() != 4) {
      throw ParseError(line,
                       "job array must be [release,deadline,length,value]");
    }
    job.release = to_tick(v.items[0], "release", line);
    job.deadline = to_tick(v.items[1], "deadline", line);
    job.length = to_tick(v.items[2], "length", line);
    if (v.items[3].kind != JsonValue::Kind::kNumber) {
      throw ParseError(line, "value must be a number");
    }
    job.value = v.items[3].number;
  } else if (v.kind == JsonValue::Kind::kObject) {
    const JsonValue* r = v.find("release");
    const JsonValue* d = v.find("deadline");
    const JsonValue* p = v.find("length");
    const JsonValue* val = v.find("value");
    if (!r || !d || !p) {
      throw ParseError(line, "job object needs release, deadline, length");
    }
    job.release = to_tick(*r, "release", line);
    job.deadline = to_tick(*d, "deadline", line);
    job.length = to_tick(*p, "length", line);
    if (val) {
      if (val->kind != JsonValue::Kind::kNumber) {
        throw ParseError(line, "value must be a number");
      }
      job.value = val->number;
    }
  } else {
    throw ParseError(line, "job must be a JSON array or object");
  }
  if (!job.well_formed()) {
    throw JobDomainError(line,
                         "malformed job (need p >= 1, val > 0, window >= p)");
  }
  return job;
}

std::string format_number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t to_count(const JsonValue& v, const char* what,
                       std::size_t line) {
  const std::int64_t t = to_tick(v, what, line);
  if (t < 0) {
    throw NumericError(line, std::string(what) + " must be >= 0");
  }
  return static_cast<std::uint64_t>(t);
}

io::ServeRequest parse_serve_request(const std::string& line,
                                     std::size_t line_no) {
  const JsonValue v = JsonReader(line, line_no).parse();
  if (v.kind != JsonValue::Kind::kObject) {
    throw ParseError(line_no, "each request must be a JSON object");
  }
  io::ServeRequest request;
  request.id = "line" + std::to_string(line_no);
  if (const JsonValue* id = v.find("id")) {
    if (id->kind == JsonValue::Kind::kString) {
      request.id = id->string;
    } else if (id->kind == JsonValue::Kind::kNumber) {
      request.id = format_number(id->number);
    } else {
      throw ParseError(line_no, "id must be a string or a number");
    }
  }
  if (const JsonValue* tenant = v.find("tenant")) {
    if (tenant->kind != JsonValue::Kind::kString) {
      throw ParseError(line_no, "tenant must be a string");
    }
    request.tenant = tenant->string;
  }
  const JsonValue* jobs = v.find("jobs");
  if (!jobs || jobs->kind != JsonValue::Kind::kArray) {
    throw ParseError(line_no, "request needs a \"jobs\" array");
  }
  for (const JsonValue& j : jobs->items) {
    request.jobs.add(job_from_json(j, line_no));
  }
  if (const JsonValue* k = v.find("k")) {
    const std::uint64_t count = to_count(*k, "k", line_no);
    if (count > io::kMaxWireK) {
      throw NumericError(line_no, "k exceeds the wire cap of " +
                                      std::to_string(io::kMaxWireK));
    }
    request.k = static_cast<std::size_t>(count);
  }
  if (const JsonValue* machines = v.find("machines")) {
    const std::uint64_t count = to_count(*machines, "machines", line_no);
    if (count > io::kMaxWireMachines) {
      throw NumericError(line_no, "machines exceeds the wire cap of " +
                                      std::to_string(io::kMaxWireMachines));
    }
    request.machines = static_cast<std::size_t>(count);
  }
  if (const JsonValue* deadline = v.find("deadline_ms")) {
    if (deadline->kind != JsonValue::Kind::kNumber ||
        !(deadline->number >= 0) || std::isinf(deadline->number)) {
      throw NumericError(line_no, "deadline_ms must be a number >= 0");
    }
    request.deadline_ms = deadline->number;
  }
  if (const JsonValue* ops = v.find("max_ops")) {
    request.max_ops = to_count(*ops, "max_ops", line_no);
  }
  if (const JsonValue* degrade = v.find("degrade")) {
    if (degrade->kind != JsonValue::Kind::kBool) {
      throw ParseError(line_no, "degrade must be a boolean");
    }
    request.degrade = degrade->boolean;
  }
  if (const JsonValue* cache = v.find("cache")) {
    if (cache->kind != JsonValue::Kind::kString ||
        (cache->string != "off" && cache->string != "read" &&
         cache->string != "read_write")) {
      throw ParseError(line_no,
                       "cache must be \"off\", \"read\" or \"read_write\"");
    }
    request.cache = cache->string;
  }
  if (const JsonValue* schedule = v.find("schedule")) {
    if (schedule->kind != JsonValue::Kind::kBool) {
      throw ParseError(line_no, "schedule must be a boolean");
    }
    request.want_schedule = schedule->boolean;
  }
  return request;
}

io::BatchInstance parse_jsonl_line(const std::string& line,
                                   std::size_t line_no) {
  const JsonValue v = JsonReader(line, line_no).parse();
  if (v.kind != JsonValue::Kind::kObject) {
    throw ParseError(line_no, "each JSONL line must be a JSON object");
  }
  io::BatchInstance instance;
  if (const JsonValue* name = v.find("name")) {
    if (name->kind != JsonValue::Kind::kString) {
      throw ParseError(line_no, "name must be a string");
    }
    instance.name = name->string;
  } else {
    instance.name = "line" + std::to_string(line_no);
  }
  const JsonValue* jobs = v.find("jobs");
  if (!jobs || jobs->kind != JsonValue::Kind::kArray) {
    throw ParseError(line_no, "instance needs a \"jobs\" array");
  }
  for (const JsonValue& j : jobs->items) {
    instance.jobs.add(job_from_json(j, line_no));
  }
  return instance;
}

diag::Report report_one(std::string_view rule, const ParseError& e) {
  diag::Report report;
  report.add(std::string(rule), e.what()).with("line", e.line());
  return report;
}

Expected<io::ServeRequest, diag::Report> try_parse_serve_request(
    const std::string& line, std::size_t line_no) {
  try {
    return parse_serve_request(line, line_no);
  } catch (const NumericError& e) {
    return Unexpected{report_one(diag::rules::kIoNumeric, e)};
  } catch (const JobDomainError& e) {
    return Unexpected{report_one(diag::rules::kIoJobDomain, e)};
  } catch (const ParseError& e) {
    return Unexpected{report_one(diag::rules::kIoParse, e)};
  }
}

std::string trim(std::string s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<io::InstanceOutcome> try_instances_from_jsonl(
    const std::string& text) {
  std::vector<io::InstanceOutcome> outcomes;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(std::move(raw));
    if (line.empty() || line.front() == '#') continue;
    const std::string fallback_name = "line" + std::to_string(line_no);
    try {
      io::BatchInstance instance = parse_jsonl_line(line, line_no);
      outcomes.push_back({std::move(instance.name), std::move(instance.jobs)});
    } catch (const NumericError& e) {
      outcomes.push_back(
          {fallback_name, Unexpected{report_one(diag::rules::kIoNumeric, e)}});
    } catch (const JobDomainError& e) {
      outcomes.push_back(
          {fallback_name,
           Unexpected{report_one(diag::rules::kIoJobDomain, e)}});
    } catch (const ParseError& e) {
      outcomes.push_back(
          {fallback_name, Unexpected{report_one(diag::rules::kIoParse, e)}});
    }
  }
  return outcomes;
}

std::string schedule_to_csv(const Schedule& schedule) {
  std::ostringstream os;
  os << "# pobp schedule v1\n";
  os << "machine,job,begin,end\n";
  for (std::size_t m = 0; m < schedule.machine_count(); ++m) {
    for (const Assignment& a : schedule.machine(m).assignments()) {
      for (const Segment& s : a.segments) {
        os << m << ',' << a.job << ',' << s.begin << ',' << s.end << '\n';
      }
    }
  }
  return os.str();
}

std::string response_frame(const std::string& id,
                           const io::ResponseStats& stats,
                           const Schedule* schedule) {
  std::ostringstream os;
  os << "{\"id\":";
  os << diag::json_quote(id);
  os << ",\"ok\":true,\"value\":" << format_number(stats.value)
     << ",\"unbounded_value\":" << format_number(stats.unbounded_value)
     << ",\"price\":" << format_number(stats.price)
     << ",\"degraded\":" << (stats.degraded ? "true" : "false")
     << ",\"jobs_scheduled\":" << stats.jobs_scheduled;
  if (schedule != nullptr) {
    os << ",\"schedule_csv\":";
    os << diag::json_quote(schedule_to_csv(*schedule));
  }
  os << '}';
  return os.str();
}

std::string error_frame(const std::string& id, const diag::Report& report) {
  std::ostringstream os;
  os << "{\"id\":";
  os << diag::json_quote(id);
  os << ",\"ok\":false,\"error\":" << diag::to_json(report) << '}';
  return os.str();
}

}  // namespace oracle

// ------------------------------------------------------------ comparison ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// "" when the columns agree bit for bit, else the first difference.
std::string diff_jobs(const JobSet& got, const JobSet& want) {
  const JobSetView g = got;
  const JobSetView w = want;
  if (g.n != w.n) {
    return "n " + std::to_string(g.n) + " vs " + std::to_string(w.n);
  }
  for (std::size_t i = 0; i < g.n; ++i) {
    if (g.release[i] != w.release[i] || g.deadline[i] != w.deadline[i] ||
        g.length[i] != w.length[i] || !same_bits(g.value[i], w.value[i])) {
      return "job " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string diff_reports(const diag::Report& got, const diag::Report& want) {
  const std::string g = diag::to_json(got);
  const std::string w = diag::to_json(want);
  return g == w ? "" : "report " + g + " vs " + w;
}

/// The fields of two outcomes, compared; "" when they are the same.
std::string diff_requests(const Expected<io::ServeRequest, diag::Report>& got,
                          const Expected<io::ServeRequest, diag::Report>& want) {
  if (got.has_value() != want.has_value()) {
    return got.has_value() ? "accepted, oracle rejects: " +
                                 diag::to_json(want.error())
                           : "rejected, oracle accepts: " +
                                 diag::to_json(got.error());
  }
  if (!got.has_value()) return diff_reports(got.error(), want.error());
  const io::ServeRequest& g = *got;
  const io::ServeRequest& w = *want;
  if (g.id != w.id) return "id " + g.id + " vs " + w.id;
  if (g.tenant != w.tenant) return "tenant " + g.tenant + " vs " + w.tenant;
  if (g.k != w.k) return "k";
  if (g.machines != w.machines) return "machines";
  if (!same_bits(g.deadline_ms, w.deadline_ms)) return "deadline_ms";
  if (g.max_ops != w.max_ops) return "max_ops";
  if (g.degrade != w.degrade) return "degrade";
  if (g.cache != w.cache) return "cache " + g.cache + " vs " + w.cache;
  if (g.want_schedule != w.want_schedule) return "schedule";
  return diff_jobs(g.jobs, w.jobs);
}

std::string diff_outcomes(const std::vector<io::InstanceOutcome>& got,
                          const std::vector<io::InstanceOutcome>& want) {
  if (got.size() != want.size()) {
    return "outcomes " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const io::InstanceOutcome& g = got[i];
    const io::InstanceOutcome& w = want[i];
    const std::string at = "instance " + std::to_string(i) + ": ";
    if (g.name != w.name) return at + "name " + g.name + " vs " + w.name;
    if (g.jobs.has_value() != w.jobs.has_value()) {
      return at + (g.jobs.has_value() ? "accepted, oracle rejects"
                                      : "rejected, oracle accepts");
    }
    const std::string d = g.jobs.has_value()
                              ? diff_jobs(*g.jobs, *w.jobs)
                              : diff_reports(g.jobs.error(), w.jobs.error());
    if (!d.empty()) return at + d;
  }
  return "";
}

/// Tallies one corpus's comparisons, so each test can also check that it
/// reached both verdicts.
struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

void expect_frame_matches(const std::string& line, std::size_t line_no,
                          Tally& tally) {
  const auto got = io::try_parse_serve_request(line, line_no, 0);
  const auto want = oracle::try_parse_serve_request(line, line_no);
  EXPECT_EQ(diff_requests(got, want), "") << line;
  ++(got.has_value() ? tally.accepted : tally.rejected);
}

/// Both JSONL APIs against the oracle: the fault-contained outcomes, and
/// the throwing loader's verdict and message.
void expect_jsonl_matches(const std::string& text, Tally& tally) {
  const std::vector<io::InstanceOutcome> want =
      oracle::try_instances_from_jsonl(text);
  EXPECT_EQ(diff_outcomes(io::try_instances_from_jsonl(text), want), "")
      << text;
  std::string first_error;
  for (const io::InstanceOutcome& o : want) {
    if (o.jobs.has_value()) {
      ++tally.accepted;
    } else {
      ++tally.rejected;
      if (first_error.empty()) {
        first_error = o.jobs.error().diagnostics().front().message;
      }
    }
  }
  std::string thrown;
  try {
    (void)io::instances_from_jsonl(text);
  } catch (const io::ParseError& e) {
    thrown = e.what();
  }
  EXPECT_EQ(thrown, first_error) << text;
}

std::vector<std::string> read_lines(const std::string& name) {
  std::ifstream in(std::string(POBP_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

const char* const kGoldenRequestFiles[] = {
    "serve/requests.jsonl", "serve/malformed_requests.jsonl",
    "serve/overflow_requests.jsonl"};

// --------------------------------------------------------- serve frames ---

TEST(WireOracle, GoldenRequestFilesParseTheSame) {
  Tally tally;
  for (const char* file : kGoldenRequestFiles) {
    const std::vector<std::string> lines = read_lines(file);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      expect_frame_matches(lines[i], i + 1, tally);
    }
  }
  EXPECT_GE(tally.accepted, 100u);
  EXPECT_GE(tally.rejected, 10u);
}

TEST(WireOracle, MutatedGoldenFramesParseTheSame) {
  Tally tally;
  for (const std::uint64_t seed : {181u, 182u, 183u}) {
    Rng rng(seed);
    for (const char* file : kGoldenRequestFiles) {
      const std::vector<std::string> lines = read_lines(file);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        for (int m = 0; m < 12; ++m) {
          expect_frame_matches(io::fuzz_mutate_line(lines[i], rng), i + 1,
                               tally);
        }
      }
    }
  }
  EXPECT_GE(tally.accepted + tally.rejected, 4000u);
  EXPECT_GE(tally.accepted, 200u);
  EXPECT_GE(tally.rejected, 2000u);
}

/// `[r,d,p,v]` tuples the way clients and the perfbench generator write
/// them: integers, then the value's %.17g digits.
std::string jobs_json(const JobSet& jobs) {
  std::string out = "[";
  char buf[96];
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job j = jobs[static_cast<JobId>(i)];
    std::snprintf(buf, sizeof buf, "%s[%lld,%lld,%lld,%.17g]", i ? "," : "",
                  static_cast<long long>(j.release),
                  static_cast<long long>(j.deadline),
                  static_cast<long long>(j.length), j.value);
    out += buf;
  }
  return out + "]";
}

/// A serve_small (n 12–64, horizon 4096) or serve_cache (n 100–300,
/// horizon 8192) frame, with the optional fields those workloads send.
std::string workload_frame(Rng& rng, std::size_t i, bool cache_shape) {
  JobGenConfig config;
  config.n = static_cast<std::size_t>(cache_shape ? rng.uniform_int(100, 300)
                                                  : rng.uniform_int(12, 64));
  config.max_length = 128;
  config.horizon = cache_shape ? 8192 : 4096;
  config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  std::string line = "{\"id\":\"" + std::string(cache_shape ? "c" : "s") +
                     std::to_string(i) + "\",\"tenant\":\"t" +
                     std::to_string(i % 4) + "\",\"k\":" +
                     std::to_string(cache_shape ? 1 : rng.uniform_int(0, 2)) +
                     ",\"machines\":" +
                     std::to_string(cache_shape ? 2 : rng.uniform_int(1, 3)) +
                     ",\"jobs\":" + jobs_json(random_jobs(config, rng));
  if (!cache_shape && rng.bernoulli(0.1)) {
    line += ",\"max_ops\":8,\"degrade\":true";
  }
  if (rng.bernoulli(0.25)) line += ",\"schedule\":true";
  if (cache_shape && rng.bernoulli(0.3)) line += ",\"cache\":\"read_write\"";
  return line + "}";
}

TEST(WireOracle, WorkloadFrameShapesParseTheSame) {
  Rng rng(184);
  Tally tally;
  for (std::size_t i = 0; i < 240; ++i) {
    const std::string line = workload_frame(rng, i, i % 4 == 3);
    expect_frame_matches(line, i + 1, tally);
    for (int m = 0; m < 4; ++m) {
      expect_frame_matches(io::fuzz_mutate_line(line, rng), i + 1, tally);
    }
  }
  EXPECT_GE(tally.accepted, 240u);
  EXPECT_GE(tally.rejected, 400u);
}

TEST(WireOracle, RepeatedKeysReadTheFirstOccurrence) {
  const std::string job = "[[0,10,4,5.0]]";
  const std::vector<std::string> lines = {
      "{\"id\":\"a\",\"id\":\"b\",\"jobs\":" + job + "}",
      "{\"id\":\"a\",\"id\":7,\"jobs\":" + job + "}",
      "{\"tenant\":\"x\",\"tenant\":\"y\",\"jobs\":" + job + "}",
      "{\"jobs\":" + job + ",\"jobs\":[[0,5,1,1],[1,9,2,2]]}",
      "{\"jobs\":" + job + ",\"jobs\":7}",
      "{\"jobs\":" + job + ",\"k\":1,\"k\":2}",
      "{\"jobs\":" + job + ",\"k\":-1,\"k\":2}",
      "{\"jobs\":" + job + ",\"machines\":3,\"machines\":1}",
      "{\"jobs\":" + job + ",\"deadline_ms\":5,\"deadline_ms\":9}",
      "{\"jobs\":" + job + ",\"max_ops\":100,\"max_ops\":\"x\"}",
      "{\"jobs\":" + job + ",\"degrade\":true,\"degrade\":false}",
      "{\"jobs\":" + job + ",\"cache\":\"off\",\"cache\":\"read\"}",
      "{\"jobs\":" + job + ",\"cache\":\"read\",\"cache\":\"bogus\"}",
      "{\"jobs\":" + job + ",\"schedule\":false,\"schedule\":true}",
      "{\"jobs\":[{\"release\":0,\"release\":3,\"deadline\":10,"
      "\"length\":4,\"value\":2,\"value\":9}]}",
      "{\"jobs\":[{\"length\":4,\"deadline\":10,\"release\":1,"
      "\"length\":40}]}",
  };
  Tally tally;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    expect_frame_matches(lines[i], i + 1, tally);
    expect_jsonl_matches(lines[i], tally);
  }
  const auto first = io::try_parse_serve_request(lines[0], 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, "a");
  const auto jobs = io::try_parse_serve_request(lines[3], 4);
  ASSERT_TRUE(jobs.has_value());
  EXPECT_EQ(jobs->jobs.size(), 1u);
  const auto k = io::try_parse_serve_request(lines[6], 7);
  ASSERT_FALSE(k.has_value());
  EXPECT_EQ(k.error().count(diag::rules::kIoNumeric), 1u);
  const auto object_job = io::try_parse_serve_request(lines[14], 15);
  ASSERT_TRUE(object_job.has_value());
  EXPECT_EQ(object_job->jobs[0].release, 0);
  EXPECT_EQ(object_job->jobs[0].value, 2.0);
}

// -------------------------------------------------------- number tokens ---

/// Number tokens for every branch of the number rule: what from_chars
/// reads whole, and what only strtod reads or nobody does.
std::vector<std::string> number_tokens() {
  std::vector<std::string> tokens = {
      "0", "-0", "0.0", "-0.0", "+0", "5", "+5", ".5", "-.5", "1.", "5.",
      "0005", "-0005.50", "1e", "1e+", "1e-", "e5", "--1", "+-1", "-+1",
      "-", "+", ".", "-.", "1.5e3.2", "1e5e5", "1E5", "1e+5", "+.5e-3",
      "1e308", "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "1e309", "-1e309", "1e999", "1e-400",
      "-1e-400", "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1e-320", "2.2250738585072009e-308",
      "2.2250738585072014e-308", "9007199254740991", "9007199254740992",
      "9007199254740993", "-9007199254740993", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "18446744073709551616",
      "99999999999999999999", "0.1", "0.30000000000000004",
      "123456789012345678901234567890e-10", "4.68", "11.893",
  };
  Rng rng(185);
  // Random doubles written the way frames carry them, bit patterns
  // included (subnormals among them).
  char buf[48];
  for (int i = 0; i < 400; ++i) {
    const double v =
        i % 2 == 0 ? std::bit_cast<double>(static_cast<std::uint64_t>(rng()))
                   : rng.uniform_real(0, 1e6);
    if (!std::isfinite(v)) continue;
    std::snprintf(buf, sizeof buf, "%.*g",
                  static_cast<int>(rng.uniform_int(1, 17)), v);
    tokens.push_back(buf);
  }
  // Random strings over the token alphabet.
  const std::string alphabet = "0123456789+-.eE";
  for (int i = 0; i < 1500; ++i) {
    std::string token;
    const auto length = rng.uniform_int(1, 10);
    for (std::int64_t c = 0; c < length; ++c) {
      token += alphabet[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    tokens.push_back(token);
  }
  return tokens;
}

TEST(WireOracle, NumberTokensReadTheSame) {
  Tally frames;
  Tally instances;
  for (const std::string& t : number_tokens()) {
    const std::string slots[] = {
        "{\"id\":\"v\",\"jobs\":[[0,10,4," + t + "]]}",
        "{\"id\":\"r\",\"jobs\":[[" + t + ",9007199254740992,1,1]]}",
        "{\"id\":\"p\",\"jobs\":[[0,9007199254740992," + t + ",1]]}",
        "{\"id\":" + t + ",\"jobs\":[[0,10,4,5]]}",
        "{\"jobs\":[[0,10,4,5]],\"k\":" + t + "}",
        "{\"jobs\":[[0,10,4,5]],\"machines\":" + t + "}",
        "{\"jobs\":[[0,10,4,5]],\"deadline_ms\":" + t + "}",
        "{\"jobs\":[[0,10,4,5]],\"max_ops\":" + t + "}",
        "[" + t + "]",
        t,
    };
    for (const std::string& line : slots) {
      expect_frame_matches(line, 3, frames);
    }
    expect_jsonl_matches("{\"name\":\"n\",\"jobs\":[[0,10,4," + t + "]]}",
                         instances);
    expect_jsonl_matches(
        "{\"jobs\":[{\"release\":" + t + ",\"deadline\":99,\"length\":1}]}",
        instances);
  }
  EXPECT_GE(frames.accepted, 1000u);
  EXPECT_GE(frames.rejected, 1000u);
  EXPECT_GE(instances.accepted, 100u);
  EXPECT_GE(instances.rejected, 100u);

  // The leniencies strtod grants stay: a leading '+', a bare fraction or
  // point, leading zeros; and the tokens from_chars stops short in or
  // reports out of range still read as strtod reads them.
  const auto value_of = [](const std::string& token) {
    const auto r = io::try_parse_serve_request(
        "{\"jobs\":[[0,10,4," + token + "]]}", 1);
    return r.has_value() ? std::optional<double>(r->jobs[0].value)
                         : std::nullopt;
  };
  EXPECT_EQ(value_of("+5"), 5.0);
  EXPECT_EQ(value_of(".5"), 0.5);
  EXPECT_EQ(value_of("1."), 1.0);
  EXPECT_EQ(value_of("0005"), 5.0);
  EXPECT_EQ(value_of("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(value_of("1e"), std::nullopt);
  const auto rule_of = [](const std::string& line) {
    const auto r = io::try_parse_serve_request(line, 1);
    return r.has_value() ? std::string() : r.error().rule_ids().front();
  };
  // ±inf and an underflow to 0 parse, then fail the job's domain check.
  EXPECT_EQ(rule_of("{\"jobs\":[[0,10,4,1e309]]}"), diag::rules::kIoJobDomain);
  EXPECT_EQ(rule_of("{\"jobs\":[[0,10,4,1e-400]]}"),
            diag::rules::kIoJobDomain);
  EXPECT_EQ(rule_of("{\"jobs\":[[0,1e309,4,1]]}"), diag::rules::kIoNumeric);
  EXPECT_EQ(rule_of("{\"jobs\":[[0,10,4,--1]]}"), diag::rules::kIoParse);
  const auto id = io::try_parse_serve_request(
      "{\"id\":+1e309,\"jobs\":[[0,10,4,5]]}", 1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->id, "1e999");
}

// ------------------------------------------------------- JSONL instances ---

TEST(JsonlOracle, InstanceLinesParseTheSame) {
  Rng rng(186);
  std::vector<std::string> lines = read_lines("malformed_instances.jsonl");
  lines.push_back(
      "{\"name\": \"web\", \"jobs\": [[0,10,4,5.0],[2,7,3,2.5]]}");
  lines.push_back(
      "{\"jobs\": [{\"release\":0,\"deadline\":30,\"length\":10,"
      "\"value\":3}, {\"length\":2,\"deadline\":9,\"release\":1}]}");
  lines.push_back("  {\"name\":\"tab\\tnew\\nline \\\"q\\\" \\/ \\\\\","
                  "\"jobs\":[]}\t");
  lines.push_back("{\"name\":\"bad\\u0041\",\"jobs\":[]}");
  lines.push_back("{\"name\":\"jobs\",\"jo\\/bs\":[[0,10,4,5]]}");
  lines.push_back("# comment line");
  lines.push_back("");
  for (std::size_t i = 0; i < 60; ++i) {
    std::string line = workload_frame(rng, i, i % 5 == 0);
    line.replace(line.find("\"id\""), 4, "\"name\"");
    lines.push_back(line);
  }
  Tally tally;
  for (const std::string& line : lines) expect_jsonl_matches(line, tally);
  std::string stream;
  for (const std::string& line : lines) stream += line + "\n";
  expect_jsonl_matches(stream, tally);
  for (int m = 0; m < 1500; ++m) {
    const std::string& line =
        lines[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(lines.size()) - 1))];
    expect_jsonl_matches(io::fuzz_mutate_line(line, rng), tally);
  }
  EXPECT_GE(tally.accepted, 150u);
  EXPECT_GE(tally.rejected, 600u);
}

// ---------------------------------------------------------- frame writer ---

TEST(FrameWriterOracle, NumbersMatchPrintf) {
  Rng rng(187);
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 1e17, 123456789012345678.0, 1e-5,
      1e-4, 0.0001234, 5e-324, 2.2250738585072009e-308,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(), 9007199254740993.0};
  for (int i = 0; i < 200000; ++i) {
    values.push_back(
        i % 4 == 0 ? rng.uniform_real(0, 1000)
                   : std::bit_cast<double>(static_cast<std::uint64_t>(rng())));
  }
  for (const double v : values) {
    std::string got;
    io::append_number(got, v);
    ASSERT_EQ(got, oracle::format_number(v))
        << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(FrameWriterOracle, FramesMatchTheStreamWriter) {
  Rng rng(188);
  for (int trial = 0; trial < 200; ++trial) {
    LaminarGenConfig config;
    config.target_jobs = static_cast<std::size_t>(rng.uniform_int(1, 64));
    Schedule schedule(
        static_cast<std::size_t>(rng.uniform_int(1, 3)));
    for (std::size_t m = 0; m < schedule.machine_count(); ++m) {
      schedule.machine(m) = random_laminar_instance(config, rng).schedule;
    }
    if (trial % 10 == 0) {
      const Time lo = std::numeric_limits<Time>::min();
      const Time hi = std::numeric_limits<Time>::max();
      schedule.machine(0).add(Assignment{
          std::numeric_limits<JobId>::max() - 1, {{lo, lo + 1}, {hi - 1, hi}}});
    }
    const io::ResponseStats stats{
        .value = rng.uniform_real(0, 1e4),
        .unbounded_value = std::bit_cast<double>(
            static_cast<std::uint64_t>(rng())),
        .price = trial % 7 == 0 ? std::numeric_limits<double>::infinity()
                                : 1 + rng.uniform01(),
        .degraded = rng.bernoulli(0.5),
        .jobs_scheduled = static_cast<std::size_t>(rng()),
    };
    const std::string id =
        trial % 3 == 0 ? "line" + std::to_string(trial) : "q\"\\\n\x01";
    EXPECT_EQ(io::schedule_to_csv(schedule), oracle::schedule_to_csv(schedule));
    EXPECT_EQ(io::response_frame(id, stats, &schedule),
              oracle::response_frame(id, stats, &schedule));
    EXPECT_EQ(io::response_frame(id, stats),
              oracle::response_frame(id, stats, nullptr));
    const auto rejected = io::try_parse_serve_request("{\"jobs\":", 9);
    ASSERT_FALSE(rejected.has_value());
    EXPECT_EQ(io::error_frame(id, rejected.error()),
              oracle::error_frame(id, rejected.error()));
  }
}

}  // namespace
}  // namespace pobp
