// Strict flat-JSONL scanning and writing for the repo's line-oriented file
// format, workload traces (src/workload/trace).
//
// Accepted grammar per line: one flat JSON object with string keys and
// number-or-string values. No nesting, no duplicate keys, no trailing
// garbage, no number outside its type's range (1e999 is not read as +inf,
// 2^64 is not clamped to UINT64_MAX). Every violation throws
// fcm::Error("<context> line N: ..."), so each format keeps its own error
// prefix; header and version rules stay with the formats.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fcm::jsonl {

/// Shortest decimal rendering of `v` that parses back bit-identically —
/// "0.004" stays "0.004", while values that genuinely need 17 digits get
/// them. Keeps files human-readable without sacrificing exact round-trip.
std::string fmt_double_rt(double v);

/// JSON string literal with the minimal escapes the strict parser accepts.
/// Throws on control characters.
std::string json_string(const std::string& s);

/// One parsed value: a number (with its raw token, so 64-bit integers can be
/// re-parsed without a double round-trip) or a string.
struct FieldValue {
  bool is_string = false;
  double num = 0.0;
  std::string raw;  // number token as written
  std::string str;  // unescaped string contents
};

using Fields = std::vector<std::pair<std::string, FieldValue>>;

/// Strict scanner for one flat JSON object line.
class LineScanner {
 public:
  /// `context` prefixes every error, e.g. "trace".
  LineScanner(const std::string& line, std::size_t line_no,
              std::string context)
      : s_(line), line_no_(line_no), context_(std::move(context)) {}

  Fields object();

  [[noreturn]] void fail(const std::string& msg) const;

 private:
  void skip_ws();
  bool eat(char c);
  void expect(char c, const std::string& what);
  std::string string_lit();
  FieldValue value();

  const std::string& s_;
  std::size_t i_ = 0;
  std::size_t line_no_;
  std::string context_;
};

/// Typed field accessors over one line's parsed object.
class FieldReader {
 public:
  FieldReader(Fields fields, const LineScanner& scanner)
      : fields_(std::move(fields)), scanner_(scanner) {}

  bool has(const char* key) const { return find(key) != nullptr; }
  double number(const char* key);
  std::uint64_t u64(const char* key);
  /// An integral number in [min, INT_MAX] (checked before any cast).
  int integer(const char* key, int min);
  std::string string(const char* key);
  /// "fp32" or "int8".
  DType dtype(const char* key);
  /// The header's version field must equal `version`; `what` names the
  /// format in the error ("unsupported <what> version N ...").
  void require_version(const char* key, std::uint64_t version,
                       const std::string& what);

  /// Every key must have been consumed by one of the accessors above.
  void check_no_unknown() const;

  /// Throw with this line's "<context> line N:" prefix.
  [[noreturn]] void fail(const std::string& msg) const { scanner_.fail(msg); }

 private:
  const FieldValue* find(const char* key) const;
  const FieldValue& require(const char* key);

  Fields fields_;
  const LineScanner& scanner_;
  std::vector<std::string> used_;
};

/// Scan `text` line by line (CRLF tolerated, blank lines skipped) and hand
/// each line's object to `on_object` — the one JSONL loop every format's
/// parser runs. Errors carry "<context> line N:".
void for_each_object(const std::string& text, const std::string& context,
                     const std::function<void(FieldReader&)>& on_object);

/// Whole contents of `path`; fcm::Error("<what>: cannot open ...").
std::string read_file(const std::string& path, const std::string& what);

/// Truncate `path` and write `text` to it; fcm::Error naming `what` on
/// failure.
void save_file(const std::string& path, const std::string& text,
               const std::string& what);

/// Parse the file at `path` with `parse`; a parse error gains a " [path]"
/// suffix so the message names the file as well as the line.
template <typename Parse>
auto load_file(const std::string& path, const std::string& what,
               Parse parse) -> decltype(parse(std::string())) {
  const std::string text = read_file(path, what);
  try {
    return parse(text);
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace fcm::jsonl
