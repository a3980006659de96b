#include "pobp/io/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <fstream>
#include <sstream>
#include <vector>

#include "pobp/diag/registry.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/checked.hpp"

namespace pobp::io {
namespace {

/// Splits one CSV line on commas (no quoting — the formats are numeric).
std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

/// Why a numeric cell was rejected — shared by the throwing parsers and the
/// fault-contained loaders (which map kSyntax → POBP-IO-001 and the numeric
/// kinds → POBP-IO-002).
enum class NumStatus { kOk, kSyntax, kOutOfRange, kNonFinite };

NumStatus parse_int_cell(const std::string& cell, std::int64_t& out) {
  const char* first = cell.data();
  const char* last = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) return NumStatus::kOutOfRange;
  if (ec != std::errc{} || ptr != last) return NumStatus::kSyntax;
  return NumStatus::kOk;
}

NumStatus parse_double_cell(const std::string& cell, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(cell, &used);
    if (used != cell.size()) return NumStatus::kSyntax;
  } catch (const std::out_of_range&) {
    return NumStatus::kOutOfRange;
  } catch (const std::exception&) {
    return NumStatus::kSyntax;
  }
  // stod happily parses "inf" and "nan"; ticks and values must be finite.
  return std::isfinite(out) ? NumStatus::kOk : NumStatus::kNonFinite;
}

std::int64_t parse_int(const std::string& cell, std::size_t line) {
  std::int64_t value = 0;
  switch (parse_int_cell(cell, value)) {
    case NumStatus::kOk: return value;
    case NumStatus::kOutOfRange:
      throw ParseError(line, "integer out of range: '" + cell + "'");
    default:
      throw ParseError(line, "expected integer, got '" + cell + "'");
  }
}

double parse_double(const std::string& cell, std::size_t line) {
  double value = 0;
  switch (parse_double_cell(cell, value)) {
    case NumStatus::kOk: return value;
    case NumStatus::kOutOfRange:
      throw ParseError(line, "number out of range: '" + cell + "'");
    case NumStatus::kNonFinite:
      throw ParseError(line, "non-finite number: '" + cell + "'");
    default:
      throw ParseError(line, "expected number, got '" + cell + "'");
  }
}

/// Iterates data lines (skipping comments/blank), checking the header.
template <typename RowFn>
void for_each_row(const std::string& text, const std::string& header,
                  std::size_t expected_cells, RowFn&& fn) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      if (line != header) {
        throw ParseError(line_no, "expected header '" + header + "'");
      }
      header_seen = true;
      continue;
    }
    const auto cells = split(line);
    if (cells.size() != expected_cells) {
      throw ParseError(line_no, "expected " + std::to_string(expected_cells) +
                                    " cells, got " +
                                    std::to_string(cells.size()));
    }
    fn(cells, line_no);
  }
  if (!header_seen) throw ParseError(line_no, "missing header row");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << text;
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

std::string jobs_to_csv(const JobSet& jobs) {
  std::ostringstream os;
  os << "# pobp jobs v1\n";
  os << "release,deadline,length,value\n";
  os.precision(17);
  for (const Job& j : jobs) {
    os << j.release << ',' << j.deadline << ',' << j.length << ',' << j.value
       << '\n';
  }
  return os.str();
}

JobSet jobs_from_csv(const std::string& text) {
  JobSet jobs;
  for_each_row(text, "release,deadline,length,value", 4,
               [&](const std::vector<std::string>& cells, std::size_t line) {
                 Job job;
                 job.release = parse_int(cells[0], line);
                 job.deadline = parse_int(cells[1], line);
                 job.length = parse_int(cells[2], line);
                 job.value = parse_double(cells[3], line);
                 if (!job.well_formed()) {
                   throw ParseError(line, "malformed job (need p ≥ 1, "
                                          "val > 0, window ≥ p)");
                 }
                 jobs.add(job);
               });
  return jobs;
}

Expected<JobSet, diag::Report> try_jobs_from_csv(const std::string& text) {
  diag::Report report;
  std::vector<Job> good;
  const auto numeric_finding = [&](NumStatus status, const char* field,
                                   const std::string& cell,
                                   std::size_t line) {
    const bool syntax = status == NumStatus::kSyntax;
    report
        .add(std::string(syntax ? diag::rules::kIoParse
                                : diag::rules::kIoNumeric),
             std::string(field) +
                 (syntax           ? ": expected a number, got '"
                  : status == NumStatus::kNonFinite ? ": non-finite value '"
                                                    : ": out of range '") +
                 cell + "'")
        .with("line", line)
        .with("cell", cell);
  };
  try {
    for_each_row(
        text, "release,deadline,length,value", 4,
        [&](const std::vector<std::string>& cells, std::size_t line) {
          Job job;
          bool ok = true;
          const char* const fields[3] = {"release", "deadline", "length"};
          std::int64_t ticks[3] = {};
          for (std::size_t i = 0; i < 3; ++i) {
            const NumStatus status = parse_int_cell(cells[i], ticks[i]);
            if (status != NumStatus::kOk) {
              numeric_finding(status, fields[i], cells[i], line);
              ok = false;
            }
          }
          const NumStatus vstatus = parse_double_cell(cells[3], job.value);
          if (vstatus != NumStatus::kOk) {
            numeric_finding(vstatus, "value", cells[3], line);
            ok = false;
          }
          if (!ok) return;
          job.release = ticks[0];
          job.deadline = ticks[1];
          job.length = ticks[2];
          if (sub_overflows(job.deadline, job.release)) {
            report
                .add(std::string(diag::rules::kIoJobDomain),
                     "window d - r overflows int64")
                .with("line", line);
            return;
          }
          if (!job.well_formed()) {
            report
                .add(std::string(diag::rules::kIoJobDomain),
                     "malformed job (need p >= 1, val > 0, window >= p)")
                .with("line", line);
            return;
          }
          good.push_back(job);
        });
  } catch (const ParseError& e) {
    // Structural defects (bad header, wrong cell count) end the scan; the
    // per-cell findings gathered so far are still reported alongside.
    report.add(std::string(diag::rules::kIoParse), e.what())
        .with("line", e.line());
  }
  if (!report.ok()) return Unexpected{std::move(report)};
  return JobSet(std::move(good));
}

Expected<JobSet, diag::Report> try_load_jobs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    diag::Report report;
    report.add(std::string(diag::rules::kIoParse), "cannot open " + path)
        .with("path", path);
    return Unexpected{std::move(report)};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return try_jobs_from_csv(buffer.str());
}

std::vector<Job> job_rows_from_csv(const std::string& text) {
  std::vector<Job> rows;
  for_each_row(text, "release,deadline,length,value", 4,
               [&](const std::vector<std::string>& cells, std::size_t line) {
                 Job job;
                 job.release = parse_int(cells[0], line);
                 job.deadline = parse_int(cells[1], line);
                 job.length = parse_int(cells[2], line);
                 job.value = parse_double(cells[3], line);
                 rows.push_back(job);
               });
  return rows;
}

std::vector<ScheduleRow> schedule_rows_from_csv(const std::string& text) {
  std::vector<ScheduleRow> rows;
  for_each_row(text, "machine,job,begin,end", 4,
               [&](const std::vector<std::string>& cells, std::size_t line) {
                 ScheduleRow row;
                 const std::int64_t m = parse_int(cells[0], line);
                 const std::int64_t j = parse_int(cells[1], line);
                 if (m < 0 || j < 0) {
                   throw ParseError(line, "negative machine or job id");
                 }
                 row.machine = static_cast<std::size_t>(m);
                 row.job = static_cast<JobId>(j);
                 row.segment.begin = parse_int(cells[2], line);
                 row.segment.end = parse_int(cells[3], line);
                 row.line = line;
                 rows.push_back(row);
               });
  return rows;
}

std::vector<std::vector<Assignment>> group_schedule_rows(
    std::span<const ScheduleRow> rows) {
  std::size_t machines = 1;
  for (const ScheduleRow& row : rows) {
    machines = std::max(machines, row.machine + 1);
  }
  // Group per (machine, job) preserving first-appearance order of jobs.
  std::vector<std::vector<Assignment>> out(machines);
  std::map<std::pair<std::size_t, JobId>, std::size_t> index;
  for (const ScheduleRow& row : rows) {
    const auto key = std::make_pair(row.machine, row.job);
    const auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(key, out[row.machine].size());
      out[row.machine].push_back(Assignment{row.job, {row.segment}});
    } else {
      out[row.machine][it->second].segments.push_back(row.segment);
    }
  }
  // Stable sort by begin so intra-job order defects are judged on time
  // order, not file order; empties and overlaps are preserved verbatim.
  for (std::vector<Assignment>& machine : out) {
    for (Assignment& a : machine) {
      std::stable_sort(a.segments.begin(), a.segments.end(),
                       [](const Segment& x, const Segment& y) {
                         return x.begin < y.begin;
                       });
    }
  }
  return out;
}

std::string schedule_to_csv(const Schedule& schedule) {
  std::string out = "# pobp schedule v1\nmachine,job,begin,end\n";
  char buf[24];
  const auto cell = [&](auto v, char sep) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    out += sep;
  };
  for (std::size_t m = 0; m < schedule.machine_count(); ++m) {
    for (const Assignment& a : schedule.machine(m).assignments()) {
      for (const Segment& s : a.segments) {
        cell(m, ',');
        cell(a.job, ',');
        cell(s.begin, ',');
        cell(s.end, '\n');
      }
    }
  }
  return out;
}

Schedule schedule_from_csv(const std::string& text) {
  struct Row {
    std::size_t machine;
    JobId job;
    Segment segment;
  };
  std::vector<Row> rows;
  std::size_t machines = 1;
  for_each_row(text, "machine,job,begin,end", 4,
               [&](const std::vector<std::string>& cells, std::size_t line) {
                 Row row;
                 const std::int64_t m = parse_int(cells[0], line);
                 const std::int64_t j = parse_int(cells[1], line);
                 if (m < 0 || j < 0) {
                   throw ParseError(line, "negative machine or job id");
                 }
                 row.machine = static_cast<std::size_t>(m);
                 row.job = static_cast<JobId>(j);
                 row.segment.begin = parse_int(cells[2], line);
                 row.segment.end = parse_int(cells[3], line);
                 if (row.segment.empty()) {
                   throw ParseError(line, "empty segment");
                 }
                 machines = std::max(machines, row.machine + 1);
                 rows.push_back(row);
               });

  // Group rows per (machine, job); MachineSchedule::add normalizes order.
  Schedule schedule(machines);
  std::map<std::pair<std::size_t, JobId>, std::vector<Segment>> grouped;
  for (const Row& row : rows) {
    grouped[{row.machine, row.job}].push_back(row.segment);
  }
  for (auto& [key, segments] : grouped) {
    schedule.machine(key.first).add(Assignment{key.second,
                                               std::move(segments)});
  }
  return schedule;
}

void save_jobs(const std::string& path, const JobSet& jobs) {
  write_file(path, jobs_to_csv(jobs));
}

JobSet load_jobs(const std::string& path) {
  return jobs_from_csv(read_file(path));
}

void save_schedule(const std::string& path, const Schedule& schedule) {
  write_file(path, schedule_to_csv(schedule));
}

Schedule load_schedule(const std::string& path) {
  return schedule_from_csv(read_file(path));
}

std::vector<Job> load_job_rows(const std::string& path) {
  return job_rows_from_csv(read_file(path));
}

std::vector<ScheduleRow> load_schedule_rows(const std::string& path) {
  return schedule_rows_from_csv(read_file(path));
}

}  // namespace pobp::io
