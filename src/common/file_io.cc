#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mesa {

namespace {

Status ErrnoError(const char* what, const std::string& path) {
  return Status::IOError(std::string(what) + " " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0) return ErrnoError("cannot stat", path);
  // A regular file is read to exactly its size; anything else (a pipe, a
  // device) is read in growing chunks until end of input.
  const bool sized = S_ISREG(st.st_mode);
  std::string out(sized ? static_cast<size_t>(st.st_size) : 0, '\0');
  size_t got = 0;
  while (!sized || got < out.size()) {
    if (got == out.size()) out.resize(out.empty() ? 65536 : 2 * out.size());
    const ssize_t n = ::read(fd, &out[got], out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("cannot read", path);
    }
    if (n == 0) {
      if (sized) {
        return Status::IOError("short read on " + path + ": got " +
                               std::to_string(got) + " of " +
                               std::to_string(out.size()) + " bytes");
      }
      break;
    }
    got += static_cast<size_t>(n);
  }
  out.resize(got);
  return out;
}

}  // namespace mesa
