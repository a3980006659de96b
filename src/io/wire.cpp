#include "pobp/io/wire.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "json_tape.hpp"
#include "pobp/diag/registry.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/io/csv.hpp"

namespace pobp::io {
namespace {

using detail::append_jobs;
using detail::JobDomainError;
using detail::JsonDocument;
using detail::JsonKind;
using detail::NumericError;
using detail::to_tick;

constexpr std::size_t kAbsent = JsonDocument::kAbsent;

/// Non-negative integer field (k, machines, max_ops).
std::uint64_t to_count(const JsonDocument& doc, std::size_t i,
                       const char* what) {
  const std::int64_t t = to_tick(doc, i, what);
  if (t < 0) {
    throw NumericError(doc.line(), std::string(what) + " must be >= 0");
  }
  return static_cast<std::uint64_t>(t);
}

/// Boolean field (degrade, schedule).
bool to_bool(const JsonDocument& doc, std::size_t i, const char* what) {
  if (doc[i].kind != JsonKind::kTrue && doc[i].kind != JsonKind::kFalse) {
    throw ParseError(doc.line(), std::string(what) + " must be a boolean");
  }
  return doc[i].kind == JsonKind::kTrue;
}

/// The request's fields, read from its tape in a fixed order: the first
/// field defect reported is the first in this order, whatever the order of
/// the fields on the line.  A repeated key reads its first occurrence.
ServeRequest parse_serve_request(const std::string& line,
                                 std::size_t line_no) {
  const JsonDocument doc(line, line_no);
  if (doc[0].kind != JsonKind::kObject) {
    throw ParseError(line_no, "each request must be a JSON object");
  }
  ServeRequest request;
  if (const std::size_t id = doc.find(0, "id"); id != kAbsent) {
    if (doc[id].kind == JsonKind::kString) {
      request.id = doc.string(id);
    } else if (doc[id].kind == JsonKind::kNumber) {
      append_number(request.id, doc[id].number);
    } else {
      throw ParseError(line_no, "id must be a string or a number");
    }
  } else {
    request.id = "line" + std::to_string(line_no);
  }
  if (const std::size_t tenant = doc.find(0, "tenant"); tenant != kAbsent) {
    if (doc[tenant].kind != JsonKind::kString) {
      throw ParseError(line_no, "tenant must be a string");
    }
    request.tenant = doc.string(tenant);
  }
  const std::size_t jobs = doc.find(0, "jobs");
  if (jobs == kAbsent || doc[jobs].kind != JsonKind::kArray) {
    throw ParseError(line_no, "request needs a \"jobs\" array");
  }
  append_jobs(doc, jobs, request.jobs);
  if (const std::size_t k = doc.find(0, "k"); k != kAbsent) {
    const std::uint64_t count = to_count(doc, k, "k");
    if (count > kMaxWireK) {
      throw NumericError(line_no, "k exceeds the wire cap of " +
                                      std::to_string(kMaxWireK));
    }
    request.k = static_cast<std::size_t>(count);
  }
  if (const std::size_t machines = doc.find(0, "machines");
      machines != kAbsent) {
    const std::uint64_t count = to_count(doc, machines, "machines");
    if (count > kMaxWireMachines) {
      throw NumericError(line_no, "machines exceeds the wire cap of " +
                                      std::to_string(kMaxWireMachines));
    }
    request.machines = static_cast<std::size_t>(count);
  }
  if (const std::size_t deadline = doc.find(0, "deadline_ms");
      deadline != kAbsent) {
    if (doc[deadline].kind != JsonKind::kNumber ||
        !(doc[deadline].number >= 0) || std::isinf(doc[deadline].number)) {
      throw NumericError(line_no, "deadline_ms must be a number >= 0");
    }
    request.deadline_ms = doc[deadline].number;
  }
  if (const std::size_t ops = doc.find(0, "max_ops"); ops != kAbsent) {
    request.max_ops = to_count(doc, ops, "max_ops");
  }
  if (const std::size_t degrade = doc.find(0, "degrade"); degrade != kAbsent) {
    request.degrade = to_bool(doc, degrade, "degrade");
  }
  if (const std::size_t cache = doc.find(0, "cache"); cache != kAbsent) {
    if (doc[cache].kind != JsonKind::kString ||
        (!doc.string_is(cache, "off") && !doc.string_is(cache, "read") &&
         !doc.string_is(cache, "read_write"))) {
      throw ParseError(line_no,
                       "cache must be \"off\", \"read\" or \"read_write\"");
    }
    request.cache = doc.string(cache);
  }
  if (const std::size_t schedule = doc.find(0, "schedule");
      schedule != kAbsent) {
    request.want_schedule = to_bool(doc, schedule, "schedule");
  }
  return request;
}

diag::Report report_one(std::string_view rule, const ParseError& e) {
  diag::Report report;
  report.add(std::string(rule), e.what()).with("line", e.line());
  return report;
}

/// Makes room for `need` bytes in `line`, need ≤ `cap`.  The capacity
/// steps through cap / 2^i, each step at least doubling it, which
/// std::string's reserve allocates exactly, so the last step lands on the
/// cap itself (a cap below 30 bytes gets the 30-byte buffer std::string's
/// first reserve allocates).
void grow_toward(std::string& line, std::size_t need, std::size_t cap) {
  const std::size_t at_least = std::max(need, 2 * line.capacity());
  std::size_t target = cap;
  while (target / 2 >= at_least) target /= 2;
  line.reserve(target);
}

}  // namespace

std::optional<RequestLine> read_request_line(std::istream& in,
                                             std::size_t max_line_bytes,
                                             std::string& line) {
  line.clear();
  RequestLine read;
  bool blank = true;
  // istream::getline scans the stream's buffer for the newline in bulk.
  // It stops after a newline (extracted and counted in gcount, not
  // stored), at the end of the stream, or with failbit set when the chunk
  // fills first, which here only means "more of this line follows".
  char chunk[4096];
  for (;;) {
    in.getline(chunk, sizeof chunk);
    const auto got = static_cast<std::size_t>(in.gcount());
    const bool newline = !in.fail() && !in.eof();
    const bool filled = in.fail() && !in.eof() && got > 0;
    const std::size_t stored = newline ? got - 1 : got;
    if (blank) {
      const char* first =
          std::find_if(chunk, chunk + stored, [](char c) {
            return c != ' ' && c != '\t' && c != '\r';
          });
      if (first != chunk + stored) {
        blank = false;
        read.skip = *first == '#';
      }
    }
    const std::size_t keep =
        max_line_bytes == 0 ? stored
                            : std::min(stored, max_line_bytes - line.size());
    if (max_line_bytes > 0 && line.size() + keep > line.capacity()) {
      grow_toward(line, line.size() + keep, max_line_bytes);
    }
    line.append(chunk, keep);
    read.bytes += stored;
    if (filled) {
      in.clear(in.rdstate() & ~std::ios::failbit);
      continue;
    }
    if (!newline && read.bytes == 0) return std::nullopt;
    if (blank) read.skip = true;
    return read;
  }
}

diag::Report oversized_line_report(std::size_t line_no, std::size_t bytes,
                                   std::size_t max_line_bytes) {
  diag::Report report;
  report
      .add(std::string(diag::rules::kIoParse),
           "request line exceeds " + std::to_string(max_line_bytes) +
               " bytes")
      .with("line", line_no)
      .with("bytes", bytes);
  return report;
}

Expected<ServeRequest, diag::Report> try_parse_serve_request(
    const std::string& line, std::size_t line_no,
    std::size_t max_line_bytes) {
  if (max_line_bytes > 0 && line.size() > max_line_bytes) {
    return Unexpected{
        oversized_line_report(line_no, line.size(), max_line_bytes)};
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

void append_number(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "1e999" : "-1e999";
    return;
  }
  char buf[32];
  const auto written = std::to_chars(buf, buf + sizeof buf, v,
                                     std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

std::string response_frame(const std::string& id, const ResponseStats& stats,
                           const Schedule* schedule) {
  std::string out;
  out.reserve(160 + id.size());
  out += "{\"id\":";
  diag::append_json_quote(out, id);
  out += ",\"ok\":true,\"value\":";
  append_number(out, stats.value);
  out += ",\"unbounded_value\":";
  append_number(out, stats.unbounded_value);
  out += ",\"price\":";
  append_number(out, stats.price);
  out += stats.degraded ? ",\"degraded\":true" : ",\"degraded\":false";
  out += ",\"jobs_scheduled\":";
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, stats.jobs_scheduled).ptr);
  if (schedule != nullptr) {
    out += ",\"schedule_csv\":";
    diag::append_json_quote(out, schedule_to_csv(*schedule));
  }
  out += '}';
  return out;
}

std::string error_frame(const std::string& id, const diag::Report& report) {
  std::string out = "{\"id\":";
  diag::append_json_quote(out, id);
  out += ",\"ok\":false,\"error\":";
  out += diag::to_json(report);
  out += '}';
  return out;
}

}  // namespace pobp::io
