#include "storage/file_io.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace escape::storage {

void throw_errno(const std::string& op, const std::string& path) {
  throw std::runtime_error(op + " failed for " + path + ": " + std::strerror(errno));
}

void fsync_parent_dir(const std::string& path) {
  const auto slash = path.rfind('/');
  std::string dir = ".";
  if (slash != std::string::npos) dir = slash == 0 ? "/" : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("open", dir);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync", dir);
  }
  ::close(fd);
}

void write_all(int fd, const std::vector<std::uint8_t>& bytes, const std::string& path) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path);
    }
    off += static_cast<std::size_t>(n);
  }
}

void replace_file_durably(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", tmp);
  try {
    write_all(fd, bytes, tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_errno("rename", tmp);
  fsync_parent_dir(path);
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open", path);
  }
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("read", path);
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
  ::close(fd);
  return buf;
}

}  // namespace escape::storage
