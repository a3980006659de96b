// Report renderers: line-per-finding text for terminals, and a
// SARIF-2.1.0-shaped JSON document for editor/CI integrations.
#pragma once

#include <string>
#include <string_view>

#include "pobp/diag/diagnostic.hpp"

namespace pobp::diag {

/// `s` as a quoted JSON string literal: quotes, backslashes and control
/// bytes escaped, every other byte copied verbatim.  The one JSON string
/// escaper: the renderers below, the `pobp serve` wire frames and
/// StreamEngine::stats_json() all use it.
std::string json_quote(std::string_view s);

/// Appends json_quote(s) to `out` without a temporary.
void append_json_quote(std::string& out, std::string_view s);

/// One line per finding ("RULE [severity] location: message"), followed by
/// a severity summary line.  Empty reports render as "no findings\n".
std::string to_text(const Report& report);

/// SARIF 2.1.0-shaped JSON: a single run whose tool.driver carries the
/// registry entries of every rule referenced by the report, and one result
/// per finding (payload entries land in result.properties).
std::string to_sarif(const Report& report, std::string_view tool_name = "pobp_lint");

/// Compact single-line JSON for wire embedding (the `pobp serve` error
/// frames): {"findings":[{"rule","severity","message","where"?,
/// "payload"?}...]} with no newlines, so a frame stays one JSONL record.
std::string to_json(const Report& report);

}  // namespace pobp::diag
