#include "json_tape.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <system_error>

#include "pobp/util/checked.hpp"

namespace pobp::io::detail {
namespace {

std::vector<JsonToken>& thread_tape() {
  thread_local std::vector<JsonToken> tape;
  return tape;
}

/// Hands a tape grown by one large line back to the allocator.
void release_if_oversized(std::vector<JsonToken>& tape) {
  if (tape.capacity() > kRetainedTapeTokens) {
    std::vector<JsonToken>().swap(tape);
  }
}

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

/// The recursive-descent pass that fills a tape.  Its checks, their order
/// and their messages are the JSON reader's contract: the first defect of
/// a line is reported the same way whatever reads the fields afterwards.
class TapeReader {
 public:
  TapeReader(std::string_view text, std::size_t line,
             std::vector<JsonToken>& tape)
      : text_(text), line_(line), tape_(tape) {}

  void parse() {
    value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
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
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  void push(JsonKind kind) { tape_.emplace_back().kind = kind; }

  void value() {
    // Containers recurse; a hostile line of 100k '[' would otherwise
    // overflow the stack.  64 levels is far beyond any legitimate frame.
    if (depth_ >= kMaxDepth) fail("JSON nested deeper than 64 levels");
    ++depth_;
    value_inner();
    --depth_;
  }

  void value_inner() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      default:
        if (consume_word("true")) return push(JsonKind::kTrue);
        if (consume_word("false")) return push(JsonKind::kFalse);
        if (consume_word("null")) return push(JsonKind::kNull);
        return number();
    }
  }

  void object() {
    const std::size_t at = open(JsonKind::kObject, '{');
    skip_ws();
    if (consume('}')) return close(at, 0);
    for (std::size_t fields = 1;; ++fields) {
      skip_ws();
      string();
      skip_ws();
      expect(':');
      value();
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return close(at, fields);
    }
  }

  void array() {
    const std::size_t at = open(JsonKind::kArray, '[');
    skip_ws();
    if (consume(']')) return close(at, 0);
    for (std::size_t items = 1;; ++items) {
      value();
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return close(at, items);
    }
  }

  std::size_t open(JsonKind kind, char bracket) {
    expect(bracket);
    push(kind);
    return tape_.size() - 1;
  }

  void close(std::size_t at, std::size_t size) {
    JsonToken& t = tape_[at];
    t.size = size;
    t.end = tape_.size();
  }

  /// A string stays in the line: the token keeps where its raw bytes
  /// start, how many there are and whether any escape needs decoding.
  void string() {
    expect('"');
    const std::size_t start = pos_;
    bool escaped = false;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') continue;
      if (pos_ >= text_.size()) fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': case '\\': case '/': case 'b': case 'f': case 'n':
        case 'r': case 't':
          escaped = true;
          break;
        default: fail("unsupported string escape");  // \uXXXX included
      }
    }
    JsonToken& t = tape_.emplace_back();
    t.kind = JsonKind::kString;
    t.escaped = escaped;
    t.size = pos_ - 1 - start;
    t.offset = start;
  }

  /// A number token is the longest run of [0-9+-.eE]; its value is what
  /// strtod reads from the whole token, and a token strtod stops short in
  /// is malformed.  std::from_chars reads every token it consumes whole
  /// without a range error to the same correctly rounded double, in place;
  /// the rest (a leading '+', a partial token, overflow to ±inf, underflow)
  /// is copied and handed to strtod, as every token once was.
  void number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected a JSON value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double v = 0;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last) {
      const std::string token(first, last);
      char* end = nullptr;
      v = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) fail("malformed number");
    }
    JsonToken& t = tape_.emplace_back();
    t.kind = JsonKind::kNumber;
    t.number = v;
  }

  static constexpr std::size_t kMaxDepth = 64;

  std::string_view text_;
  std::size_t line_;
  std::vector<JsonToken>& tape_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// A string token's raw bytes (checked by the reader), escapes decoded.
std::string decode(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    switch (raw[++i]) {
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      default: out.push_back(raw[i]); break;  // '"', '\\', '/'
    }
  }
  return out;
}

[[noreturn]] void fail(const JsonDocument& doc, const std::string& what) {
  throw ParseError(doc.line(), what);
}

double value_of(const JsonDocument& doc, std::size_t i) {
  if (doc[i].kind != JsonKind::kNumber) fail(doc, "value must be a number");
  return doc[i].number;
}

Job job_at(const JsonDocument& doc, std::size_t i) {
  Job job;
  const JsonToken& t = doc[i];
  if (t.kind == JsonKind::kArray) {
    if (t.size != 4) {
      fail(doc, "job array must be [release,deadline,length,value]");
    }
    std::size_t item = i + 1;
    job.release = to_tick(doc, item, "release");
    item = doc.next(item);
    job.deadline = to_tick(doc, item, "deadline");
    item = doc.next(item);
    job.length = to_tick(doc, item, "length");
    item = doc.next(item);
    job.value = value_of(doc, item);
  } else if (t.kind == JsonKind::kObject) {
    const std::size_t r = doc.find(i, "release");
    const std::size_t d = doc.find(i, "deadline");
    const std::size_t p = doc.find(i, "length");
    const std::size_t val = doc.find(i, "value");
    if (r == JsonDocument::kAbsent || d == JsonDocument::kAbsent ||
        p == JsonDocument::kAbsent) {
      fail(doc, "job object needs release, deadline, length");
    }
    job.release = to_tick(doc, r, "release");
    job.deadline = to_tick(doc, d, "deadline");
    job.length = to_tick(doc, p, "length");
    if (val != JsonDocument::kAbsent) job.value = value_of(doc, val);
  } else {
    fail(doc, "job must be a JSON array or object");
  }
  if (!job.well_formed()) {
    throw JobDomainError(doc.line(),
                         "malformed job (need p >= 1, val > 0, window >= p)");
  }
  return job;
}

}  // namespace

std::size_t tape_capacity() { return thread_tape().capacity(); }

JsonDocument::JsonDocument(std::string_view text, std::size_t line)
    : text_(text), line_(line), tape_(thread_tape()) {
  tape_.clear();
  try {
    TapeReader(text, line, tape_).parse();
  } catch (...) {
    release_if_oversized(tape_);  // no destructor runs for a throwing ctor
    throw;
  }
}

JsonDocument::~JsonDocument() { release_if_oversized(tape_); }

std::size_t JsonDocument::find(std::size_t object, std::string_view key) const {
  const std::size_t fields = tape_[object].size;
  std::size_t i = object + 1;
  for (std::size_t f = 0; f < fields; ++f) {
    if (string_is(i, key)) return i + 1;
    i = next(i + 1);
  }
  return kAbsent;
}

std::string JsonDocument::string(std::size_t i) const {
  const JsonToken& t = tape_[i];
  const std::string_view raw = text_.substr(t.offset, t.size);
  return t.escaped ? decode(raw) : std::string(raw);
}

bool JsonDocument::string_is(std::size_t i, std::string_view s) const {
  const JsonToken& t = tape_[i];
  const std::string_view raw = text_.substr(t.offset, t.size);
  return t.escaped ? decode(raw) == s : raw == s;
}

std::int64_t to_tick(const JsonDocument& doc, std::size_t i, const char* what) {
  if (doc[i].kind != JsonKind::kNumber) {
    fail(doc, std::string(what) + " must be a number");
  }
  // static_cast<int64> of a NaN/inf/out-of-range double is UB; screen first.
  const std::optional<std::int64_t> tick = double_to_tick(doc[i].number);
  if (!tick) {
    throw NumericError(doc.line(),
                       std::string(what) + " must be a finite integer tick");
  }
  return *tick;
}

void append_jobs(const JsonDocument& doc, std::size_t array, JobSet& out) {
  out.reserve(out.size() + doc[array].size);
  for (std::size_t j = 0, i = array + 1; j < doc[array].size;
       ++j, i = doc.next(i)) {
    out.add(job_at(doc, i));
  }
}

}  // namespace pobp::io::detail
