// Internal JSON reader shared by the JSONL instance loader (manifest.cpp)
// and the serve wire protocol (wire.cpp).  Not installed — the public
// surface stays pobp/io/manifest.hpp and pobp/io/wire.hpp.
//
// Just enough JSON for one-value-per-line formats: objects, arrays,
// numbers, strings (with the escapes \" \\ \/ \b \f \n \r \t, no \uXXXX),
// true/false/null, nested at most 64 values deep.  Anything else is a
// ParseError carrying the 1-based source line and the first defect's
// message.
//
// One recursive-descent pass validates the whole line and records it as
// a flat tape of tokens in document order (docs/PERF.md, "Wire parse and
// frame writer"); no value is materialized as a tree.  The consumers then
// read their fields from the tape, so every field check still runs after
// the line has parsed, as it always has.  Strings stay in the line's text
// and are decoded only when read.  The tape is the calling thread's and is
// reused by its next line, so a steady stream parses without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pobp/io/csv.hpp"
#include "pobp/schedule/job.hpp"

namespace pobp::io::detail {

enum class JsonKind : std::uint8_t {
  kNull,
  kFalse,
  kTrue,
  kNumber,
  kString,
  kArray,
  kObject
};

/// One value of the tape.  A container's contents follow it in document
/// order (an object's as key, value, key, value, ...), and it records the
/// index one past its last token, so a reader steps over any value in
/// O(1).
struct JsonToken {
  JsonKind kind = JsonKind::kNull;
  bool escaped = false;  ///< kString: the raw bytes hold a backslash escape
  std::size_t size = 0;  ///< kString: raw bytes; kArray: items; kObject: fields
  union {
    double number;        ///< kNumber
    std::size_t offset;   ///< kString: the first raw byte within the line
    std::size_t end = 0;  ///< kArray, kObject: one past the last token
  };
};

/// Tapes that grew past this many tokens (one per job item, about five
/// per job) are released after their line instead of kept for the next.
inline constexpr std::size_t kRetainedTapeTokens = std::size_t{1} << 13;

/// Capacity, in tokens, of the calling thread's tape between lines.
std::size_t tape_capacity();

/// One parsed line: the line's text and its tape.  Construction parses
/// the whole line onto the calling thread's tape (throwing ParseError on
/// the first defect); the accessors read it.  Token 0 is the line's value.
/// One document per thread at a time.
class JsonDocument {
 public:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  JsonDocument(std::string_view text, std::size_t line);
  ~JsonDocument();
  JsonDocument(const JsonDocument&) = delete;
  JsonDocument& operator=(const JsonDocument&) = delete;

  std::size_t line() const { return line_; }
  const JsonToken& operator[](std::size_t i) const { return tape_[i]; }

  /// The index one past token `i`'s value.
  std::size_t next(std::size_t i) const {
    const JsonToken& t = tape_[i];
    return t.kind == JsonKind::kArray || t.kind == JsonKind::kObject ? t.end
                                                                     : i + 1;
  }

  /// The value of the first field of object `object` named `key`, or
  /// kAbsent.
  std::size_t find(std::size_t object, std::string_view key) const;

  /// String token `i`, escapes decoded.
  std::string string(std::size_t i) const;

  /// True iff string token `i` decodes to `s`.
  bool string_is(std::size_t i, std::string_view s) const;

 private:
  std::string_view text_;
  std::size_t line_;
  std::vector<JsonToken>& tape_;
};

// ParseError refinements so the fault-contained loaders can classify a
// failure without sniffing message text; the throwing API is unchanged
// (both are ParseError).
struct NumericError : ParseError {
  using ParseError::ParseError;
};
struct JobDomainError : ParseError {
  using ParseError::ParseError;
};

/// Token `i` as an integer tick: a number that is a finite integer within
/// int64 (NumericError otherwise, ParseError for a non-number).
std::int64_t to_tick(const JsonDocument& doc, std::size_t i, const char* what);

/// Appends the jobs of array token `array` to `out`, in order; each is a
/// [release,deadline,length,value] array or an object with those fields
/// (value optional).  Throws on the first malformed job, JobDomainError
/// for a well-typed job outside the model.
void append_jobs(const JsonDocument& doc, std::size_t array, JobSet& out);

}  // namespace pobp::io::detail
