#include "pobp/io/wire.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "json_micro.hpp"
#include "pobp/diag/registry.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/io/csv.hpp"

namespace pobp::io {
namespace {

using detail::JobDomainError;
using detail::JsonReader;
using detail::JsonValue;
using detail::NumericError;
using detail::job_from_json;
using detail::to_tick;

/// Deterministic JSON number rendering: %.17g round-trips every double
/// bit-exactly, and infinities render as 1e999 (standard parsers read
/// that back as +inf), matching the metrics JSON export.
std::string format_number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Non-negative integer field (k, machines, max_ops).
std::uint64_t to_count(const JsonValue& v, const char* what,
                       std::size_t line) {
  const std::int64_t t = to_tick(v, what, line);
  if (t < 0) {
    throw NumericError(line, std::string(what) + " must be >= 0");
  }
  return static_cast<std::uint64_t>(t);
}

ServeRequest parse_serve_request(const std::string& line,
                                 std::size_t line_no) {
  const JsonValue v = JsonReader(line, line_no).parse();
  if (v.kind != JsonValue::Kind::kObject) {
    throw ParseError(line_no, "each request must be a JSON object");
  }
  ServeRequest request;
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
    if (count > kMaxWireK) {
      throw NumericError(line_no, "k exceeds the wire cap of " +
                                      std::to_string(kMaxWireK));
    }
    request.k = static_cast<std::size_t>(count);
  }
  if (const JsonValue* machines = v.find("machines")) {
    const std::uint64_t count = to_count(*machines, "machines", line_no);
    if (count > kMaxWireMachines) {
      throw NumericError(line_no, "machines exceeds the wire cap of " +
                                      std::to_string(kMaxWireMachines));
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

diag::Report report_one(std::string_view rule, const ParseError& e) {
  diag::Report report;
  report.add(std::string(rule), e.what()).with("line", e.line());
  return report;
}

}  // namespace

Expected<ServeRequest, diag::Report> try_parse_serve_request(
    const std::string& line, std::size_t line_no,
    std::size_t max_line_bytes) {
  if (max_line_bytes > 0 && line.size() > max_line_bytes) {
    diag::Report report;
    report
        .add(std::string(diag::rules::kIoParse),
             "request line exceeds " + std::to_string(max_line_bytes) +
                 " bytes")
        .with("line", line_no)
        .with("bytes", line.size());
    return Unexpected{std::move(report)};
  }
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

std::string response_frame(const std::string& id, const ResponseStats& stats,
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

}  // namespace pobp::io
