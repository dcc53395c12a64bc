// The benchmark's own arithmetic, kept free of any cluster code so the unit
// tests in tests/math_test.cpp can pin it down:
//
//   * the reporting rule for a timing: its median, plus the highest
//     percentile that still has at least ten samples beyond it;
//   * failures as SLO misses: a request that failed or timed out is a
//     latency of +infinity, so it misses every limit;
//   * the open-loop schedule: request i is due at start + i / rate, and its
//     latency and the generator's lateness are both measured from that due
//     time, so a stalled generator cannot hide queueing delay;
//   * the knee search: the highest offered rate whose p99 meets an absolute
//     SLO with no failures and no backlog growth, found by doubling and then
//     bisecting to a relative resolution.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// p * n / 100 from rounding up past an exact integer (99.99% of 100000).
inline std::size_t nearest_rank(std::size_t n, double p) {
  return static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile (p in [0, 100]) of an ascending sample; 0 when
/// empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t rank = nearest_rank(sorted.size(), p);
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

inline double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50); }

/// Samples strictly beyond the nearest-rank position of percentile p.
inline std::size_t beyond(std::size_t n, double p) { return n - std::min(nearest_rank(n, p), n); }

/// A timing's tail: the highest percentile of the ladder with at least
/// kMinBeyond samples beyond it. With too few samples for even the median
/// to qualify, the tail is the maximum and `pct` reads 100.
struct Tail {
  double value = 0;
  double pct = 100;
  std::size_t n = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

inline Tail tail(std::vector<double> values) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  std::sort(values.begin(), values.end());
  Tail t;
  t.n = values.size();
  if (values.empty()) return t;
  for (const double p : kLadder) {
    if (beyond(values.size(), p) >= kMinBeyond) {
      t.pct = p;
      t.value = percentile_sorted(values, p);
      return t;
    }
  }
  t.value = values.back();
  return t;
}

/// Open-loop schedule: due time (µs from the window start) of request i.
inline double due_us(std::uint64_t i, double rate_per_s) {
  return static_cast<double>(i) * 1e6 / rate_per_s;
}

/// One request of an open-loop window, all times in µs on one clock.
struct Op {
  double due = 0;     ///< scheduled arrival
  double submit = 0;  ///< when the generator actually handed it to the client
  double done = 0;    ///< completion (meaningful when `ok` or `failed`)
  bool ok = false;
  bool failed = false;  ///< timeout or terminal error
};

/// What a window of requests shows, with failures counted as misses.
struct WindowStats {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;  ///< from due time; failures are kMiss
  std::vector<double> late_ms;     ///< generator lateness, submit - due
};

/// `OpT` is Op or a type derived from it.
template <class OpT>
WindowStats summarize(const std::vector<OpT>& ops) {
  WindowStats w;
  w.attempted = ops.size();
  w.latency_ms.reserve(ops.size());
  w.late_ms.reserve(ops.size());
  for (const Op& op : ops) {
    w.late_ms.push_back((op.submit - op.due) / 1e3);
    if (op.ok) {
      w.latency_ms.push_back((op.done - op.due) / 1e3);
    } else {
      ++w.failed;
      w.latency_ms.push_back(kMiss);
    }
  }
  return w;
}

/// A window is valid only while the generator kept its own schedule: the
/// p99 of its lateness stays within `bound_ms`.
inline bool generator_kept_up(const WindowStats& w, double bound_ms) {
  return percentile(w.late_ms, 99) <= bound_ms;
}

/// Outcome of offering one rate for one window.
struct Probe {
  double p99_ms = 0;            ///< failures included as misses
  std::size_t failed = 0;
  std::size_t backlog_end = 0;  ///< requests still outstanding when the window closed
  bool generator_ok = true;
};

/// Backlog growth: more requests outstanding at the end of a window than the
/// rate can complete within the SLO (Little's law), i.e. the queue has
/// outgrown what a system meeting the SLO would hold.
inline bool backlog_grew(std::size_t backlog_end, double rate_per_s, double slo_ms) {
  const double steady = rate_per_s * slo_ms / 1e3;
  return static_cast<double>(backlog_end) > std::max(16.0, steady);
}

inline bool meets_slo(const Probe& p, double rate_per_s, double slo_ms) {
  return p.generator_ok && p.failed == 0 && p.p99_ms <= slo_ms &&
         !backlog_grew(p.backlog_end, rate_per_s, slo_ms);
}

/// The knee search's fixed settings: the rate it will not search past, the
/// relative bracket width at which bisection stops, and how many probes a
/// rate must miss before it counts as failing, so one stall of the host
/// inside one short probe does not end the search.
inline constexpr double kKneeMaxRate = 200000;
inline constexpr double kKneeResolution = 0.03;
inline constexpr int kKneeConfirm = 2;

struct KneeOptions {
  double start_rate = 1000;
  int max_probes = 16;
};

struct KneeResult {
  double knee = 0;  ///< highest passing rate below the lowest failing one; 0 if none passed
  double first_fail = 0;
  int probes = 0;
};

/// Doubles from start_rate until a probe misses the SLO, then bisects the
/// bracket. The answer is always a rate that passed and sits below every
/// rate that failed, so a noisy probe can narrow the bracket but never
/// report a knee above a failure.
template <class ProbeFn>
KneeResult find_knee(const KneeOptions& opts, double slo_ms, ProbeFn&& probe) {
  KneeResult r;
  // 1: `rate` met the SLO in one of up to kKneeConfirm probes; 0: it missed
  // them all; -1: the probe budget ran out before a verdict.
  const auto verdict = [&](double rate) {
    for (int i = 0; i < kKneeConfirm; ++i) {
      if (r.probes >= opts.max_probes) return -1;
      ++r.probes;
      if (meets_slo(probe(rate), rate, slo_ms)) return 1;
    }
    return 0;
  };
  double pass = 0;
  double fail = 0;
  for (double rate = opts.start_rate;;) {
    const int v = verdict(rate);
    if (v < 0) break;
    if (v == 0) {
      fail = rate;
      break;
    }
    pass = rate;
    if (rate >= kKneeMaxRate) break;
    rate = std::min(rate * 2, kKneeMaxRate);
  }
  while (pass > 0 && fail > 0 && (fail - pass) / pass > kKneeResolution) {
    const double mid = (pass + fail) / 2;
    const int v = verdict(mid);
    if (v < 0) break;
    (v ? pass : fail) = mid;
  }
  r.knee = pass;
  r.first_fail = fail;
  return r;
}

}  // namespace perfbench
