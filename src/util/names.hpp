// Numbered names for generated principals, clients and servers.
#pragma once

#include <cstddef>
#include <string>

namespace sharegrid::util {

/// "<prefix><index>", e.g. numbered("P", 3) == "P3". Built by appending to
/// the prefix: GCC 12 at -O3 misreports `"P" + std::to_string(i)`, which
/// inserts the literal at the front of the temporary, as an overlapping
/// memcpy (-Wrestrict).
inline std::string numbered(std::string prefix, std::size_t index) {
  prefix += std::to_string(index);
  return prefix;
}

}  // namespace sharegrid::util
