#include "common/strings.h"

#include <cctype>
#include <charconv>

#include "common/index.h"

namespace bvq {

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string_view TrimLeft(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  return s.substr(b);
}

bool ParseSizeT(std::string_view tok, std::size_t* out) {
  std::size_t value = 0;
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

bool MiBToBytes(std::size_t mib, std::size_t* bytes) {
  return CheckedMul(mib, std::size_t{1} << 20, bytes);
}

}  // namespace bvq
