// POSIX file helpers shared by the file-backed stores.
//
// A rename or unlink is durable only once the directory holding the entry is
// fsynced: without that, a power loss after rename() can bring back the old
// file (a granted vote or an adopted term forgotten) and a crash after a
// segment unlink can bring back the segment. Every store that replaces,
// creates or deletes a file on the live path therefore ends with
// fsync_parent_dir().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace escape::storage {

/// Throws std::runtime_error("<op> failed for <path>: <strerror(errno)>").
[[noreturn]] void throw_errno(const std::string& op, const std::string& path);

/// fsyncs the directory that contains `path`, making a completed rename,
/// creation or unlink of `path` survive a power loss.
void fsync_parent_dir(const std::string& path);

/// Writes `bytes` in full to `fd` (retrying short writes); throws on error.
void write_all(int fd, const std::vector<std::uint8_t>& bytes, const std::string& path);

/// Atomically replaces `path` with `bytes`: write `path.tmp`, fsync it,
/// rename it over `path`, fsync the directory. A crash at any point leaves
/// either the old or the new file, never a torn one.
void replace_file_durably(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// The whole file, or nullopt when it does not exist. Throws on other errors.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

}  // namespace escape::storage
