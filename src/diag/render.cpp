#include "pobp/diag/render.hpp"

#include <cstdio>
#include <sstream>

#include "pobp/diag/registry.hpp"

namespace pobp::diag {
namespace {

std::string_view sarif_level(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "error";
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_quote(out, s);
  return out;
}

void append_json_quote(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string to_text(const Report& report) {
  if (report.empty()) return "no findings\n";
  std::ostringstream os;
  for (const Diagnostic& d : report.diagnostics()) {
    os << d.to_string() << '\n';
  }
  os << report.count(Severity::kError) << " error(s), "
     << report.count(Severity::kWarning) << " warning(s), "
     << report.count(Severity::kNote) << " note(s)\n";
  return os.str();
}

std::string to_sarif(const Report& report, std::string_view tool_name) {
  std::ostringstream os;
  os << "{\"version\":\"2.1.0\","
     << "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
     << "\"runs\":[{\"tool\":{\"driver\":{\"name\":";
  os << json_quote(tool_name);
  os << ",\"rules\":[";
  bool first = true;
  for (const std::string& id : report.rule_ids()) {
    const RuleInfo* info = find_rule(id);
    if (!first) os << ',';
    first = false;
    os << "{\"id\":";
    os << json_quote(id);
    if (info) {
      os << ",\"shortDescription\":{\"text\":";
      os << json_quote(info->title);
      os << "},\"fullDescription\":{\"text\":";
      os << json_quote(info->description);
      os << "},\"properties\":{\"paperRef\":";
      os << json_quote(info->paper_ref);
      os << "}";
    }
    os << "}";
  }
  os << "]}},\"results\":[";
  first = true;
  for (const Diagnostic& d : report.diagnostics()) {
    if (!first) os << ',';
    first = false;
    os << "{\"ruleId\":";
    os << json_quote(d.rule);
    os << ",\"level\":\"" << sarif_level(d.severity)
       << "\",\"message\":{\"text\":";
    os << json_quote(d.message);
    os << "}";
    // Source-anchored findings (POBP-SRC-*) render as a SARIF
    // physicalLocation so editors and CI annotate the file directly.
    if (d.where.file) {
      os << ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
            "{\"uri\":";
      os << json_quote(*d.where.file);
      os << "}";
      if (d.where.line) {
        os << ",\"region\":{\"startLine\":" << *d.where.line;
        if (d.where.column) os << ",\"startColumn\":" << *d.where.column;
        os << "}";
      }
      os << "}}]";
    }
    os << ",\"properties\":{";
    bool first_prop = true;
    const auto prop = [&](std::string_view key, std::string_view value,
                          bool quote) {
      if (!first_prop) os << ',';
      first_prop = false;
      os << json_quote(key);
      os << ':';
      if (quote) {
        os << json_quote(value);
      } else {
        os << value;
      }
    };
    if (d.where.machine) prop("machine", std::to_string(*d.where.machine), false);
    if (d.where.job) prop("job", std::to_string(*d.where.job), false);
    if (d.where.node) prop("node", std::to_string(*d.where.node), false);
    if (d.where.segment) prop("segment", std::to_string(*d.where.segment), false);
    if (d.where.begin) prop("begin", std::to_string(*d.where.begin), false);
    if (d.where.end) prop("end", std::to_string(*d.where.end), false);
    for (const auto& [key, value] : d.payload) prop(key, value, true);
    os << "}}";
  }
  os << "]}]}";
  return os.str();
}

std::string to_json(const Report& report) {
  std::ostringstream os;
  os << "{\"findings\":[";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics()) {
    if (!first) os << ',';
    first = false;
    os << "{\"rule\":";
    os << json_quote(d.rule);
    os << ",\"severity\":\"" << sarif_level(d.severity)
       << "\",\"message\":";
    os << json_quote(d.message);
    const std::string where = d.where.to_string();
    if (!where.empty()) {
      os << ",\"where\":";
      os << json_quote(where);
    }
    if (!d.payload.empty()) {
      os << ",\"payload\":{";
      bool first_prop = true;
      for (const auto& [key, value] : d.payload) {
        if (!first_prop) os << ',';
        first_prop = false;
        os << json_quote(key);
        os << ':';
        os << json_quote(value);
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace pobp::diag
