// The `pobp serve` JSONL wire protocol (docs/SERVING.md).
//
// Requests are one JSON object per line:
//
//   {"id": "req-1", "jobs": [[0,10,4,5.0], ...],
//    "k": 1, "machines": 2,                 // optional pipeline overrides
//    "deadline_ms": 50, "max_ops": 1000000, // optional per-request budget
//    "tenant": "acme", "degrade": true,     // optional admission fields
//    "cache": "read_write",                 // optional solve-cache mode
//    "schedule": true}                      // echo the solved schedule
//
// Responses are one frame per request, in request order:
//
//   {"id":"req-1","ok":true,"value":7.5,"unbounded_value":8,"price":1.0666,
//    "degraded":false,"jobs_scheduled":2,"schedule_csv":"..."}
//   {"id":"req-2","ok":false,"error":{"findings":[{"rule":"POBP-RUN-003",
//    ...}]}}
//
// Frames are deterministic functions of the request (no timestamps, no
// worker identity), which is what makes replayed streams byte-identical
// across worker counts.  Error frames embed the compact diag::to_json
// rendering, so rule ids arrive machine-matchable.
//
// This layer is io-only (no engine dependency): the CLI composes it with
// pobp::StreamEngine, and ResponseStats carries the few ScheduleResult
// fields a frame needs so the layering (io below core/engine) holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/job.hpp"
#include "pobp/schedule/schedule.hpp"
#include "pobp/util/expected.hpp"

namespace pobp::io {

/// One parsed request line.
struct ServeRequest {
  std::string id;        ///< echo token; defaults to "line<N>"
  std::string tenant;    ///< "" = the default tenant
  JobSet jobs;
  std::optional<std::size_t> k;         ///< per-request k override
  std::optional<std::size_t> machines;  ///< per-request machine count
  double deadline_ms = 0;               ///< end-to-end deadline (0 = none)
  std::uint64_t max_ops = 0;            ///< op budget (0 = engine default)
  std::optional<bool> degrade;          ///< per-request degrade override
  /// Per-request solve-cache mode: "" (engine default), "off", "read" or
  /// "read_write" (kept a string so io stays below engine in the layer
  /// map; the CLI maps it onto SubmitOptions::cache).
  std::string cache;
  bool want_schedule = false;           ///< echo the schedule CSV
};

/// Default ceiling on one request line (1 MiB).  Oversized lines are
/// rejected with POBP-IO-001 *before* parsing, and read_request_line keeps
/// no more of them than the ceiling, so a hostile stream cannot make the
/// server buffer or scan unbounded frames.
inline constexpr std::size_t kDefaultMaxLineBytes = std::size_t{1} << 20;

/// What read_request_line saw of one line.
struct RequestLine {
  std::size_t bytes = 0;  ///< the whole line's length, newline excluded
  /// Blank or a '#' comment, judged on the line's first byte other than
  /// ' ', '\t' and '\r' — wherever it lies, past the ceiling included.
  bool skip = false;
};

/// Reads the next line of a request stream (up to '\n', which is consumed
/// and dropped, or the end of the stream) into `line`, keeping at most
/// `max_line_bytes` of its bytes (0 = unlimited) and counting and
/// discarding the rest.  `line`'s capacity grows to the ceiling at most, so
/// an oversized line costs no more memory than a maximal one.  Returns
/// nullopt when no line is left (std::getline's end-of-stream rule: a
/// last line without a newline still counts).
[[nodiscard]] std::optional<RequestLine> read_request_line(
    std::istream& in, std::size_t max_line_bytes, std::string& line);

/// The POBP-IO-001 report for request line `line_no`, `bytes` long, past
/// `max_line_bytes`.
[[nodiscard]] diag::Report oversized_line_report(std::size_t line_no,
                                                 std::size_t bytes,
                                                 std::size_t max_line_bytes);

/// Sanity ceilings on the per-request overrides.  A corrupted frame
/// asking for 2^60 machines would otherwise make the solver allocate a
/// machine array of that size; past these caps the request is rejected
/// in-band with POBP-IO-002.  Both are far beyond any meaningful value
/// (the paper's regime is k, m = O(log n)).
inline constexpr std::size_t kMaxWireK = std::size_t{1} << 20;
inline constexpr std::size_t kMaxWireMachines = 4096;

/// Parses one JSONL request line (1-based `line_no` for error reports and
/// the fallback id).  Malformed, truncated, too-deeply-nested or (beyond
/// `max_line_bytes`; 0 = unlimited) oversized lines come back as
/// POBP-IO-001/-002/-003 reports — one bad request never kills the
/// stream, and nothing on this path throws past the boundary.
[[nodiscard]] Expected<ServeRequest, diag::Report> try_parse_serve_request(
    const std::string& line, std::size_t line_no,
    std::size_t max_line_bytes = kDefaultMaxLineBytes);

/// The ScheduleResult fields a success frame carries (kept primitive so io
/// stays below core in the layer map).
struct ResponseStats {
  double value = 0;
  double unbounded_value = 0;
  double price = 1;
  bool degraded = false;
  std::size_t jobs_scheduled = 0;
};

/// One success frame (no trailing newline).  `schedule` non-null embeds
/// its CSV rendering as the "schedule_csv" field.
[[nodiscard]] std::string response_frame(const std::string& id,
                                         const ResponseStats& stats,
                                         const Schedule* schedule = nullptr);

/// Appends the frames' rendering of `v` to `out`: the bytes of printf's
/// "%.17g" (written by std::to_chars, general format, precision 17),
/// which read back as the same double, and ±1e999 for the infinities.
void append_number(std::string& out, double v);

/// One error frame (no trailing newline), embedding diag::to_json(report).
[[nodiscard]] std::string error_frame(const std::string& id,
                                      const diag::Report& report);

}  // namespace pobp::io
