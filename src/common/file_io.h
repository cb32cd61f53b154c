#ifndef MESA_COMMON_FILE_IO_H_
#define MESA_COMMON_FILE_IO_H_

#include <string>

#include "common/result.h"

namespace mesa {

/// Reads a whole file into one string, sized from the file. Fails with
/// IOError naming the path when the file cannot be opened or read
/// (a directory reads as EISDIR) or when it yields fewer bytes than its
/// size promised, so a short read is never parsed as a truncated file.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace mesa

#endif  // MESA_COMMON_FILE_IO_H_
