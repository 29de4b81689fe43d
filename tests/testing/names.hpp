// Numbered names for test coflows, queries and tenants.
#pragma once

#include <cstddef>
#include <string>

namespace ccf::testing {

/// `prefix` followed by `index` in decimal: numbered("c", 3) is "c3".
/// Built by appending, because GCC 12 reports a false -Wrestrict on the
/// inlined `"c" + std::to_string(i)`.
inline std::string numbered(std::string prefix, std::size_t index) {
  prefix += std::to_string(index);
  return prefix;
}

}  // namespace ccf::testing
