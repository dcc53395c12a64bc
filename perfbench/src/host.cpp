#include "host.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "openloop.h"
#include "stats.h"

namespace perfbench {

namespace {

std::string read_field(const char* path, const std::string& field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

std::string fs_name(long magic) {
  switch (magic) {
    case 0xEF53: return "ext4";  // ext2/3/4 share the magic
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    case 0x6969: return "nfs";
    case 0x01021994: return "tmpfs";
    case 0x858458F6: return "ramfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", magic);
      return buf;
    }
  }
}

}  // namespace

Fingerprint fingerprint(const std::string& data_dir) {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.cpu_model = read_field("/proc/cpuinfo", "model name");
  fp.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  fp.ndebug = true;
#endif
  struct statfs sf {};
  if (::statfs(data_dir.c_str(), &sf) != 0) throw std::runtime_error("statfs " + data_dir);
  fp.fs_type = fs_name(static_cast<long>(sf.f_type));

  const std::string path = data_dir + "/fsync.probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot create " + path);
  const std::vector<char> block(512, 'x');
  std::vector<double> ms;
  for (int i = 0; i < 64; ++i) {
    const double t0 = now_us();
    const bool ok = ::write(fd, block.data(), block.size()) == 512 && ::fsync(fd) == 0;
    if (!ok) {
      ::close(fd);
      throw std::runtime_error("fsync probe failed in " + data_dir);
    }
    ms.push_back((now_us() - t0) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  fp.fsync_p50_ms = percentile(ms, 50);
  fp.fsync_p99_ms = percentile(ms, 99);
  return fp;
}

std::string refusal(const Fingerprint& fp) {
  if (fp.build_type == "Debug" || !fp.ndebug) {
    return "refusing a Debug build (" + fp.build_type + "): build Release";
  }
  if (fp.fs_type == "tmpfs" || fp.fs_type == "ramfs") {
    return "refusing data directory on " + fp.fs_type + ": fsync there measures nothing";
  }
  return "";
}

std::string describe(const Fingerprint& fp) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%u cpu=\"%s\" build=%s NDEBUG=%s data_dir_fs=%s "
                "fsync512B_p50=%.3fms fsync512B_p99=%.3fms",
                fp.nproc, fp.cpu_model.c_str(), fp.build_type.c_str(), fp.ndebug ? "set" : "unset",
                fp.fs_type.c_str(), fp.fsync_p50_ms, fp.fsync_p99_ms);
  return buf;
}

ProcStats proc_stats() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcStats s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.threads = std::atof(read_field("/proc/self/status", "Threads").c_str());
  return s;
}

}  // namespace perfbench
