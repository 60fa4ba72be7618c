#ifndef BVQ_COMMON_STRINGS_H_
#define BVQ_COMMON_STRINGS_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace bvq {

/// Concatenates the stream representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Joins the stream representations of `items` with `sep`.
template <typename Container>
std::string StrJoin(const Container& items, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    first = false;
    os << item;
  }
  return os.str();
}

/// Splits `s` on `sep`, dropping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Removes leading ASCII whitespace.
std::string_view TrimLeft(std::string_view s);

/// Parses a whole base-10 token into *out. Strict where `istream >> n` and
/// std::stoul are not: no exceptions, the entire token must be consumed
/// ("12x" and "" are rejected instead of silently truncated or zeroed), and
/// out-of-range values fail instead of throwing.
bool ParseSizeT(std::string_view tok, std::size_t* out);

/// mib MiB in bytes into *bytes; false (and *bytes untouched) if that
/// overflows std::size_t.
bool MiBToBytes(std::size_t mib, std::size_t* bytes);

}  // namespace bvq

#endif  // BVQ_COMMON_STRINGS_H_
