#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <sstream>

namespace kanon {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string PadLeft(std::string_view text, size_t width) {
  std::string out;
  if (text.size() < width) out.assign(width - text.size(), ' ');
  out.append(text);
  return out;
}

std::string PadRight(std::string_view text, size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string FormatDouble(double value, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << value;
  return os.str();
}

bool ParseInt(std::string_view text, long long* out) {
  const std::string buf(Trim(text));
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

bool ParseUint(std::string_view text, uint64_t* out) {
  std::string_view digits = Trim(text);
  if (digits.starts_with('+')) digits.remove_prefix(1);
  const char* end = digits.data() + digits.size();
  uint64_t value = 0;
  const std::from_chars_result parsed =
      std::from_chars(digits.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) return false;
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  const std::string buf(Trim(text));
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

}  // namespace kanon
