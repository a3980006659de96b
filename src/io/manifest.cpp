#include "pobp/io/manifest.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "json_tape.hpp"
#include "pobp/diag/registry.hpp"

namespace pobp::io {
namespace {

using detail::append_jobs;
using detail::JobDomainError;
using detail::JsonDocument;
using detail::JsonKind;
using detail::NumericError;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string trim(std::string s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// "dir/web.csv" → "web".
std::string path_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot < start) dot = path.size();
  return path.substr(start, dot - start);
}

/// Parses one (already trimmed, non-empty) JSONL line into an instance,
/// reading its fields from the line's tape in a fixed order (a repeated
/// key reads its first occurrence).
BatchInstance parse_jsonl_line(const std::string& line, std::size_t line_no) {
  const JsonDocument doc(line, line_no);
  if (doc[0].kind != JsonKind::kObject) {
    throw ParseError(line_no, "each JSONL line must be a JSON object");
  }
  BatchInstance instance;
  if (const std::size_t name = doc.find(0, "name");
      name != JsonDocument::kAbsent) {
    if (doc[name].kind != JsonKind::kString) {
      throw ParseError(line_no, "name must be a string");
    }
    instance.name = doc.string(name);
  } else {
    instance.name = "line" + std::to_string(line_no);
  }
  const std::size_t jobs = doc.find(0, "jobs");
  if (jobs == JsonDocument::kAbsent || doc[jobs].kind != JsonKind::kArray) {
    throw ParseError(line_no, "instance needs a \"jobs\" array");
  }
  append_jobs(doc, jobs, instance.jobs);
  return instance;
}

diag::Report report_one(std::string_view rule, const ParseError& e) {
  diag::Report report;
  report.add(std::string(rule), e.what()).with("line", e.line());
  return report;
}

diag::Report cannot_open(const std::string& path) {
  diag::Report report;
  report.add(std::string(diag::rules::kIoParse), "cannot open " + path)
      .with("path", path);
  return report;
}

}  // namespace

std::vector<std::string> manifest_paths(const std::string& text,
                                        const std::string& base_dir) {
  std::vector<std::string> paths;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::string line = trim(std::move(raw));
    if (line.empty()) continue;
    if (!base_dir.empty() && line.front() != '/') {
      line = base_dir + "/" + line;
    }
    paths.push_back(std::move(line));
  }
  return paths;
}

std::vector<BatchInstance> load_manifest(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  std::vector<BatchInstance> instances;
  for (const std::string& csv : manifest_paths(read_file(path), base_dir)) {
    instances.push_back({path_stem(csv), load_jobs(csv)});
  }
  return instances;
}

std::vector<BatchInstance> instances_from_jsonl(const std::string& text) {
  std::vector<BatchInstance> instances;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(std::move(raw));
    if (line.empty() || line.front() == '#') continue;
    instances.push_back(parse_jsonl_line(line, line_no));
  }
  return instances;
}

std::vector<BatchInstance> load_jsonl(const std::string& path) {
  return instances_from_jsonl(read_file(path));
}

Expected<std::vector<InstanceOutcome>, diag::Report> try_load_manifest(
    const std::string& path) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::exception&) {
    return Unexpected{cannot_open(path)};
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  std::vector<InstanceOutcome> outcomes;
  for (const std::string& csv : manifest_paths(text, base_dir)) {
    outcomes.push_back({path_stem(csv), try_load_jobs(csv)});
  }
  return outcomes;
}

std::vector<InstanceOutcome> try_instances_from_jsonl(const std::string& text) {
  std::vector<InstanceOutcome> outcomes;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(std::move(raw));
    if (line.empty() || line.front() == '#') continue;
    const std::string fallback_name = "line" + std::to_string(line_no);
    try {
      BatchInstance instance = parse_jsonl_line(line, line_no);
      outcomes.push_back(
          {std::move(instance.name), std::move(instance.jobs)});
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

Expected<std::vector<InstanceOutcome>, diag::Report> try_load_jsonl(
    const std::string& path) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::exception&) {
    return Unexpected{cannot_open(path)};
  }
  return try_instances_from_jsonl(text);
}

}  // namespace pobp::io
