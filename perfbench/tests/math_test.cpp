// Unit tests for the benchmark's own arithmetic (src/stats.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

// --- highest percentile with at least ten samples beyond it -------------------

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  // n = 1000: p99 leaves exactly 10 beyond, p99.9 only 1.
  const Tail t = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);
}

TEST(TailRule, NineBeyondIsNotEnough) {
  // n = 999: p99 sits at rank 990 and leaves 9 beyond, so p95 is the tail.
  const Tail t = tail(one_to(999));
  EXPECT_DOUBLE_EQ(t.pct, 95.0);
  EXPECT_EQ(beyond(999, 95.0), 999u - 950u);
}

TEST(TailRule, LargeSamplesReachFurther) {
  EXPECT_DOUBLE_EQ(tail(one_to(10000)).pct, 99.9);
  EXPECT_DOUBLE_EQ(tail(one_to(100000)).pct, 99.99);
}

TEST(TailRule, TooFewSamplesFallBackToMax) {
  const Tail t = tail(one_to(15));  // even the median leaves only 7 beyond
  EXPECT_DOUBLE_EQ(t.pct, 100.0);
  EXPECT_DOUBLE_EQ(t.value, 15.0);
  EXPECT_DOUBLE_EQ(tail({}).value, 0.0);
}

TEST(TailRule, EveryChosenPercentileHasTenBeyond) {
  for (int n = 1; n <= 3000; n += 7) {
    const Tail t = tail(one_to(n));
    if (t.pct < 100) {
      EXPECT_GE(beyond(static_cast<std::size_t>(n), t.pct), kMinBeyond) << n;
    }
  }
}

// --- failures count as SLO misses ----------------------------------------------

TEST(FailureAsMiss, FailuresPushThePercentileToInfinity) {
  // 98 fast successes and 2 failures: p99 must miss any finite SLO.
  std::vector<Op> ops(100);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].done = 1000;
    ops[i].ok = i >= 2;
    ops[i].failed = !ops[i].ok;
  }
  const WindowStats w = summarize(ops);
  EXPECT_TRUE(std::isinf(percentile(w.latency_ms, 99)));
  EXPECT_DOUBLE_EQ(percentile(w.latency_ms, 50), 1.0);
}

TEST(FailureAsMiss, SummarizeCountsTimeoutsAsMisses) {
  std::vector<Op> ops(100);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].due = static_cast<double>(i) * 1000;
    ops[i].submit = ops[i].due;
    ops[i].done = ops[i].due + 500;
    ops[i].ok = i % 10 != 0;  // every tenth one timed out
    ops[i].failed = !ops[i].ok;
  }
  const WindowStats w = summarize(ops);
  EXPECT_EQ(w.failed, 10u);
  EXPECT_EQ(w.attempted, 100u);
  EXPECT_TRUE(std::isinf(percentile(w.latency_ms, 95)));
  Probe p;
  p.p99_ms = percentile(w.latency_ms, 99);
  p.failed = w.failed;
  EXPECT_FALSE(meets_slo(p, 1000, 1e9));
}

TEST(FailureAsMiss, AFailureFailsAProbeEvenWithAGoodP99) {
  Probe p;
  p.p99_ms = 0.5;
  p.failed = 1;
  EXPECT_FALSE(meets_slo(p, 1000, 10));
  p.failed = 0;
  EXPECT_TRUE(meets_slo(p, 1000, 10));
}

// --- due-time lateness --------------------------------------------------------

TEST(DueTime, ScheduleIsFixedByRate) {
  EXPECT_DOUBLE_EQ(due_us(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(due_us(5, 1000), 5000.0);
  EXPECT_DOUBLE_EQ(due_us(3, 4000), 750.0);
}

TEST(DueTime, AStalledGeneratorCannotHideQueueing) {
  // The generator stalls 50 ms at request 10 and then catches up: requests
  // 10..59 are handed over late. Each completes 1 ms after submission.
  std::vector<Op> ops(100);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].due = due_us(i, 1000);
    ops[i].submit = (i >= 10 && i < 60) ? 60000 : ops[i].due;
    ops[i].done = ops[i].submit + 1000;
    ops[i].ok = true;
  }
  const WindowStats w = summarize(ops);
  // Timed from submission every request took 1 ms; from its due time the
  // stalled ones waited up to 51 ms, and the latency shows it.
  EXPECT_DOUBLE_EQ(percentile(w.latency_ms, 50), 1.0);
  EXPECT_DOUBLE_EQ(*std::max_element(w.latency_ms.begin(), w.latency_ms.end()), 51.0);
  EXPECT_GT(percentile(w.latency_ms, 99), 40.0);
  EXPECT_DOUBLE_EQ(percentile(w.late_ms, 99), 49.0);
  EXPECT_FALSE(generator_kept_up(w, 2.0));
}

TEST(DueTime, APunctualGeneratorKeepsUp) {
  std::vector<Op> ops(100);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].due = due_us(i, 1000);
    ops[i].submit = ops[i].due + 30;  // 30 µs late
    ops[i].done = ops[i].submit + 800;
    ops[i].ok = true;
  }
  const WindowStats w = summarize(ops);
  EXPECT_TRUE(generator_kept_up(w, 2.0));
  EXPECT_NEAR(percentile(w.latency_ms, 50), 0.83, 1e-9);
}

// --- knee search -----------------------------------------------------------------

/// A system whose p99 grows with the offered rate and blows up past
/// `capacity`.
struct FakeSystem {
  double capacity = 23000;
  double slo_ms = 10;
  int probes = 0;
  Probe operator()(double rate) {
    ++probes;
    Probe p;
    p.p99_ms = rate < capacity ? 1 + 8 * rate / capacity : 1000;
    return p;
  }
};

TEST(KneeSearch, FindsTheCapacityWithinResolution) {
  FakeSystem system;
  KneeOptions opts;
  opts.start_rate = 1000;
  opts.max_probes = 40;
  const KneeResult k = find_knee(opts, system.slo_ms, system);
  EXPECT_LT(k.knee, system.capacity);
  EXPECT_GE(k.knee, system.capacity * (1 - kKneeResolution));
  EXPECT_GT(k.first_fail, k.knee);
  // Resolution finer than a 2x ladder: the answer is not a power-of-two step.
  EXPECT_GT(k.knee, 16000 * 1.1);
}

TEST(KneeSearch, IsMonotoneInCapacity) {
  double previous = 0;
  for (double capacity = 2000; capacity <= 64000; capacity *= 1.3) {
    FakeSystem system;
    system.capacity = capacity;
    KneeOptions opts;
    opts.max_probes = 40;
    const double knee = find_knee(opts, system.slo_ms, system).knee;
    EXPECT_GE(knee, previous) << capacity;
    previous = knee;
  }
}

TEST(KneeSearch, RespectsBacklogGrowth) {
  // p99 always fine, but past 12k the backlog at window end outgrows what
  // the SLO allows: the knee must sit below 12k.
  auto system = [](double rate) {
    Probe p;
    p.p99_ms = 1;
    p.backlog_end = rate > 12000 ? static_cast<std::size_t>(rate) : 4;
    return p;
  };
  KneeOptions opts;
  opts.max_probes = 40;
  const KneeResult k = find_knee(opts, 10, system);
  EXPECT_LE(k.knee, 12000);
  EXPECT_GE(k.knee, 12000 * (1 - kKneeResolution));
  EXPECT_TRUE(backlog_grew(13000, 13000, 10));
  EXPECT_FALSE(backlog_grew(100, 13000, 10));  // 130 in flight is steady state
}

TEST(KneeSearch, RespectsFailuresAndGeneratorLag) {
  auto failing = [](double rate) {
    Probe p;
    p.p99_ms = 1;
    p.failed = rate > 5000 ? 1 : 0;
    return p;
  };
  KneeOptions opts;
  opts.max_probes = 40;
  EXPECT_LE(find_knee(opts, 10, failing).knee, 5000);

  auto lagging = [](double rate) {
    Probe p;
    p.p99_ms = 1;
    p.generator_ok = rate <= 3000;
    return p;
  };
  EXPECT_LE(find_knee(opts, 10, lagging).knee, 3000);
}

TEST(KneeSearch, NoPassingRateMeansZero) {
  auto broken = [](double) {
    Probe p;
    p.p99_ms = 1e6;
    return p;
  };
  const KneeResult k = find_knee(KneeOptions{}, 10, broken);
  EXPECT_DOUBLE_EQ(k.knee, 0.0);
  EXPECT_EQ(k.probes, 2);  // the start rate, missed twice
}

TEST(KneeSearch, OneStalledProbeDoesNotEndTheSearch) {
  // Every rate's first probe hits a host stall; the confirming probe passes
  // below the true capacity.
  std::map<double, int> seen;
  auto stalling = [&](double rate) {
    Probe p;
    p.p99_ms = (seen[rate]++ == 0 || rate >= 20000) ? 100 : 1;
    return p;
  };
  KneeOptions opts;
  opts.max_probes = 60;
  const KneeResult k = find_knee(opts, 10, stalling);
  EXPECT_GE(k.knee, 20000 / (1 + kKneeResolution));
  EXPECT_LT(k.knee, 20000);
}

TEST(KneeSearch, StopsAtTheProbeBudget) {
  FakeSystem system;
  KneeOptions opts;
  opts.max_probes = 5;
  const KneeResult k = find_knee(opts, system.slo_ms, system);
  EXPECT_EQ(system.probes, 5);
  EXPECT_EQ(k.probes, 5);
  EXPECT_DOUBLE_EQ(k.knee, 16000);  // 1k..16k passed; 32k not yet judged
  EXPECT_DOUBLE_EQ(k.first_fail, 0.0);
}

TEST(KneeSearch, NeverReportsAboveAFailure) {
  // A noisy system that fails at exactly one rate inside the bracket.
  int calls = 0;
  auto noisy = [&](double rate) {
    ++calls;
    Probe p;
    p.p99_ms = (rate > 20000 || (rate > 9000 && calls == 6)) ? 100 : 1;
    return p;
  };
  KneeOptions opts;
  opts.max_probes = 40;
  const KneeResult k = find_knee(opts, 10, noisy);
  EXPECT_LT(k.knee, k.first_fail);
}

}  // namespace
}  // namespace perfbench
