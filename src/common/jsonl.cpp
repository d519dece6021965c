#include "common/jsonl.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace fcm::jsonl {

std::string fmt_double_rt(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        FCM_CHECK(static_cast<unsigned char>(c) >= 0x20,
                  "jsonl: control character in string field");
        out += c;
    }
  }
  out += '"';
  return out;
}

Fields LineScanner::object() {
  Fields fields;
  skip_ws();
  expect('{', "object");
  skip_ws();
  if (!eat('}')) {
    for (;;) {
      skip_ws();
      std::string key = string_lit();
      for (const auto& [seen, unused] : fields) {
        if (seen == key) fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      expect(':', "':' after key \"" + key + "\"");
      skip_ws();
      fields.emplace_back(std::move(key), value());
      skip_ws();
      if (eat(',')) continue;
      expect('}', "',' or '}'");
      break;
    }
  }
  skip_ws();
  if (i_ != s_.size()) fail("trailing characters after object");
  return fields;
}

void LineScanner::fail(const std::string& msg) const {
  throw Error(context_ + " line " + std::to_string(line_no_) + ": " + msg);
}

void LineScanner::skip_ws() {
  while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
}

bool LineScanner::eat(char c) {
  if (i_ < s_.size() && s_[i_] == c) {
    ++i_;
    return true;
  }
  return false;
}

void LineScanner::expect(char c, const std::string& what) {
  if (!eat(c)) fail("expected " + what);
}

std::string LineScanner::string_lit() {
  if (!eat('"')) fail("expected string");
  std::string out;
  while (i_ < s_.size() && s_[i_] != '"') {
    char c = s_[i_++];
    if (c == '\\') {
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        default: fail(std::string("unsupported escape '\\") + e + "'");
      }
    }
    out += c;
  }
  if (!eat('"')) fail("unterminated string");
  return out;
}

FieldValue LineScanner::value() {
  FieldValue v;
  if (i_ < s_.size() && s_[i_] == '"') {
    v.is_string = true;
    v.str = string_lit();
    return v;
  }
  const std::size_t start = i_;
  while (i_ < s_.size() &&
         (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
          s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' ||
          s_[i_] == 'E')) {
    ++i_;
  }
  if (i_ == start) fail("expected number or string value");
  v.raw = s_.substr(start, i_ - start);
  char* end = nullptr;
  v.num = std::strtod(v.raw.c_str(), &end);
  if (end != v.raw.c_str() + v.raw.size()) {
    fail("malformed number '" + v.raw + "'");
  }
  // strtod overflows to ±inf; no format stores an infinity.
  if (!std::isfinite(v.num)) fail("number out of range '" + v.raw + "'");
  return v;
}

double FieldReader::number(const char* key) {
  const FieldValue& v = require(key);
  if (v.is_string) scanner_.fail(std::string(key) + " must be a number");
  return v.num;
}

std::uint64_t FieldReader::u64(const char* key) {
  // Re-parse the raw token: a 64-bit integer must not round-trip through the
  // scanner's double (2^53 would silently truncate it), and a token past
  // UINT64_MAX must not clamp to it.
  const FieldValue& v = require(key);
  if (v.is_string || v.raw.find_first_of(".eE-+") != std::string::npos) {
    scanner_.fail(std::string(key) + " must be a non-negative 64-bit integer");
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t x = std::strtoull(v.raw.c_str(), &end, 10);
  if (end != v.raw.c_str() + v.raw.size() || errno == ERANGE) {
    scanner_.fail(std::string(key) + " must be a non-negative 64-bit integer");
  }
  return x;
}

int FieldReader::integer(const char* key, int min) {
  const double x = number(key);
  // Range before the cast: converting an out-of-range double to int is
  // undefined behaviour.
  constexpr int kMax = std::numeric_limits<int>::max();
  if (!(x >= min && x <= kMax) || x != std::floor(x)) {
    scanner_.fail(std::string(key) + " must be an integer in " +
                  std::to_string(min) + ".." + std::to_string(kMax));
  }
  return static_cast<int>(x);
}

std::string FieldReader::string(const char* key) {
  const FieldValue& v = require(key);
  if (!v.is_string) scanner_.fail(std::string(key) + " must be a string");
  return v.str;
}

DType FieldReader::dtype(const char* key) {
  const std::string name = string(key);
  if (name == "fp32") return DType::kF32;
  if (name == "int8") return DType::kI8;
  scanner_.fail(std::string(key) + " must be \"fp32\" or \"int8\", got \"" +
                name + "\"");
}

void FieldReader::require_version(const char* key, std::uint64_t version,
                                  const std::string& what) {
  const std::uint64_t v = u64(key);
  if (v != version) {
    scanner_.fail("unsupported " + what + " version " + std::to_string(v) +
                  " (this build reads version " + std::to_string(version) +
                  ")");
  }
}

void FieldReader::check_no_unknown() const {
  for (const auto& [key, unused] : fields_) {
    bool used = false;
    for (const auto& u : used_) used = used || u == key;
    if (!used) scanner_.fail("unknown key \"" + key + "\"");
  }
}

const FieldValue* FieldReader::find(const char* key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const FieldValue& FieldReader::require(const char* key) {
  const FieldValue* v = find(key);
  if (v == nullptr) scanner_.fail(std::string("missing key \"") + key + "\"");
  used_.push_back(key);
  return *v;
}

void for_each_object(const std::string& text, const std::string& context,
                     const std::function<void(FieldReader&)>& on_object) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    LineScanner scanner(line, line_no, context);
    FieldReader fields(scanner.object(), scanner);
    on_object(fields);
  }
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream is(path, std::ios::binary);
  FCM_CHECK(is.good(), what + ": cannot open '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void save_file(const std::string& path, const std::string& text,
               const std::string& what) {
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  FCM_CHECK(os.good(), what + ": cannot write '" + path + "'");
  os << text;
  FCM_CHECK(os.good(), what + ": write to '" + path + "' failed");
}

}  // namespace fcm::jsonl
