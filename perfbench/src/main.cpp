// perfbench: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --data-dir DIR
//             [--e2e-out FILE]
//
// Prints the host fingerprint, every metric by name with its unit, and as
// the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the gated end-to-end ones; with
// --trace 1 they are the per-layer ones. Exit status: 0 when every
// correctness check passed, 1 when one failed (the JSON still says which),
// 2 when the run could not produce a result at all.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include "host.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics.items()) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
std::string metrics_json(const Metrics& metrics) {
  std::string json = "{";
  for (const Metric& m : metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : -1.0);
    if (json.size() > 1) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  return json + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--data-dir DIR [--e2e-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string e2e_out;  // where to save the end-to-end metrics (run.py's overhead report)
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--e2e-out") {
      e2e_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.data_dir.empty() || args.seconds <= 0) {
    return usage();
  }

  int status = 2;
  try {
    std::filesystem::create_directories(args.data_dir);
    const Fingerprint fp = fingerprint(args.data_dir);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::printf("%s\n", describe(fp).c_str());
    if (const std::string why = refusal(fp); !why.empty()) throw std::runtime_error(why);

    Result r = run_workload(args);
    const Metrics& reported = args.trace ? r.layer : r.e2e;
    for (const Metric& m : reported.items()) {
      if (!std::isfinite(m.value)) r.violations.push_back(m.name + " is not finite");
    }
    for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
    print_metrics("end-to-end (gated; same names on every workload):", r.e2e);
    print_metrics("end-to-end (this workload's own names):", r.named);
    if (args.trace) print_metrics("per-layer (traced run):", r.layer);
    for (const std::string& v : r.violations) std::printf("CORRECTNESS FAILURE: %s\n", v.c_str());
    const bool correct = r.violations.empty();
    std::printf("correct=%s attempted=%zu failed=%zu\n", correct ? "yes" : "NO", r.attempted,
                r.failed);

    if (!e2e_out.empty()) {
      Metrics all = r.e2e;
      for (const Metric& m : r.named.items()) all.set(m.name, m.value, m.unit);
      if (std::FILE* f = std::fopen(e2e_out.c_str(), "w")) {
        std::fprintf(f, "%s\n", metrics_json(all).c_str());
        std::fclose(f);
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                correct ? "true" : "false", r.attempted, r.failed, metrics_json(reported).c_str());
    status = correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 2;
  }
  std::fflush(stdout);
  std::error_code ignored;  // run.py removes the directory too
  std::filesystem::remove_all(args.data_dir, ignored);
  return status;
}
