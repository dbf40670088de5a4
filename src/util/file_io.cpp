#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

#include "util/error.h"

namespace sldm {
namespace {

/// Closes a file descriptor on scope exit.
struct FdGuard {
  int fd;
  ~FdGuard() { ::close(fd); }
};

std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

}  // namespace

FileBytes read_regular_file(const std::string& path, std::string_view what) {
  const std::string kind(what);
  // O_NONBLOCK: opening a FIFO must not wait for a writer; fstat then
  // rejects it, like every other path that is not a regular file.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) {
    throw Error("cannot open " + kind + " file " + path + ": " +
                errno_text());
  }
  const FdGuard guard{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw Error("cannot stat " + kind + " file " + path + ": " +
                errno_text());
  }
  if (!S_ISREG(st.st_mode)) {
    throw Error(kind + " " + path + ": not a regular file");
  }
  FileBytes out;
  out.size = static_cast<std::size_t>(st.st_size);
  out.data = std::make_unique_for_overwrite<char[]>(out.size);
  std::size_t got = 0;
  while (got < out.size) {
    const ssize_t n = ::read(fd, out.data.get() + got, out.size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      throw Error("cannot read " + kind + " file " + path + ": " +
                  errno_text());
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got != out.size) {
    throw Error(kind + " " + path + ": short read (" + std::to_string(got) +
                " of " + std::to_string(out.size) + " byte(s))");
  }
  return out;
}

}  // namespace sldm
