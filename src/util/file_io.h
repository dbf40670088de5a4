// Whole-file reads shared by the decoders (.sim, .eco, .sldc).
//
// Every decoder parses one in-memory buffer, so the file is read with a
// single sized read() instead of through a stream.  Only regular files
// are accepted: a directory would otherwise read as empty input, and a
// FIFO would block until some writer appeared.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

namespace sldm {

/// The bytes of one file.  The buffer is never zero-filled first.
struct FileBytes {
  std::unique_ptr<char[]> data;
  std::size_t size = 0;

  std::string_view view() const { return {data.get(), size}; }
};

/// Reads the regular file at `path` whole.  Throws Error if it cannot be
/// opened or read, if it is not a regular file ("<what> <path>: not a
/// regular file"; a FIFO is opened non-blocking, so this never waits
/// for a writer), or if it reads back shorter than its size.  `what`
/// names the file's kind in the message, e.g. "snapshot".
FileBytes read_regular_file(const std::string& path, std::string_view what);

}  // namespace sldm
