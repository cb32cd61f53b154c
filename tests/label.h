#ifndef MESA_TESTS_LABEL_H_
#define MESA_TESTS_LABEL_H_

#include <cstdint>
#include <string>

namespace mesa {

/// "<prefix><n>", e.g. Label("g", 3) == "g3". Built with append because
/// gcc 12 reports a false -Wrestrict on `"g" + std::to_string(n)` once it
/// is inlined into a test body.
inline std::string Label(std::string prefix, uint64_t n) {
  return prefix.append(std::to_string(n));
}

}  // namespace mesa

#endif  // MESA_TESTS_LABEL_H_
