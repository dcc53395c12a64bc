// Model-based fuzz test: raft::Log against a trivial reference model
// (std::vector of entries with a compaction base), over thousands of random
// operation sequences.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "raft/log.h"

namespace escape::raft {
namespace {

/// Obviously-correct reference implementation.
struct ModelLog {
  LogIndex base = 0;   // highest compacted index
  Term base_term = 0;  // term retained at the compaction boundary
  std::vector<rpc::LogEntry> entries;

  LogIndex last_index() const { return base + static_cast<LogIndex>(entries.size()); }
  LogIndex first_index() const { return base + 1; }

  std::optional<Term> term_at(LogIndex i) const {
    if (i == 0) return Term{0};
    if (i == base) return base_term;
    if (i < base || i > last_index()) return std::nullopt;
    return entries[static_cast<std::size_t>(i - base - 1)].term;
  }

  void append(rpc::LogEntry e) { entries.push_back(std::move(e)); }

  void truncate_from(LogIndex from) {
    if (from > last_index()) return;
    entries.resize(static_cast<std::size_t>(from - base - 1));
  }

  void compact_to(LogIndex upto) {
    const auto drop = static_cast<std::size_t>(upto - base);
    base_term = entries[drop - 1].term;
    entries.erase(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(drop));
    base = upto;
  }
};

rpc::LogEntry make_entry(Term t, LogIndex i, Rng& rng) {
  rpc::LogEntry e;
  e.term = t;
  e.index = i;
  e.command.assign(static_cast<std::size_t>(rng.uniform_int(0, 8)),
                   static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  return e;
}

class LogModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogModelTest, RandomOpSequencesMatchModel) {
  Rng rng(GetParam());
  Log log;
  ModelLog model;
  Term term = 1;

  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 4) {  // append (most common)
      if (rng.chance(0.1)) ++term;
      auto e = make_entry(term, log.last_index() + 1, rng);
      log.append(e);
      model.append(e);
    } else if (op <= 6) {  // truncate suffix
      if (log.last_index() > log.first_index()) {
        const LogIndex from = rng.uniform_int(model.first_index(), model.last_index());
        log.truncate_from(from);
        model.truncate_from(from);
        // Terms never go backwards in real usage; keep generating >= tail.
        term = std::max(term, model.entries.empty() ? Term{1} : model.entries.back().term);
      }
    } else if (op == 7) {  // compact prefix
      if (model.last_index() > model.base) {
        const LogIndex upto = rng.uniform_int(model.base + 1, model.last_index());
        log.compact_to(upto);
        model.compact_to(upto);
      }
    } else {  // probe queries
      const LogIndex probe = rng.uniform_int(0, model.last_index() + 3);
      ASSERT_EQ(log.term_at(probe), model.term_at(probe)) << "probe " << probe;
    }

    // Invariant sweep after every mutation.
    ASSERT_EQ(log.last_index(), model.last_index());
    ASSERT_EQ(log.first_index(), model.first_index());
    ASSERT_EQ(log.size(), model.entries.size());
    ASSERT_EQ(log.base(), model.base);
    ASSERT_EQ(log.base_term(), model.base_term);
  }

  // Final deep comparison: entries, slices, term searches.
  for (LogIndex i = model.first_index(); i <= model.last_index(); ++i) {
    const auto* e = log.entry_at(i);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(*e, model.entries[static_cast<std::size_t>(i - model.base - 1)]);
  }
  if (model.last_index() >= model.first_index()) {
    const LogIndex from = (model.first_index() + model.last_index()) / 2;
    const auto s = log.slice(from, 10);
    for (std::size_t k = 0; k < s.size(); ++k) {
      EXPECT_EQ(s[k], model.entries[static_cast<std::size_t>(from + static_cast<LogIndex>(k) -
                                                             model.base - 1)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogModelTest, ::testing::Range<std::uint64_t>(1, 13));

TEST(LogModelTest, MatchesSemantics) {
  // matches(i, t) == (term_at(i) exists and equals t), plus the index-0 rule.
  Rng rng(99);
  Log log;
  Term term = 1;
  for (LogIndex i = 1; i <= 50; ++i) {
    if (rng.chance(0.2)) ++term;
    log.append(make_entry(term, i, rng));
  }
  EXPECT_TRUE(log.matches(0, 0));
  for (LogIndex i = 1; i <= 50; ++i) {
    EXPECT_TRUE(log.matches(i, *log.term_at(i)));
    EXPECT_FALSE(log.matches(i, *log.term_at(i) + 1));
  }
  EXPECT_FALSE(log.matches(51, term));
}

TEST(LogModelTest, UpToDateTotalOrderIsConsistent) {
  // For random log pairs, the §5.4.1 comparison is antisymmetric: if A is
  // strictly newer than B then B must not be considered up-to-date vs A.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Log a, b;
    Term ta = 1, tb = 1;
    const auto len_a = rng.uniform_int(0, 20);
    const auto len_b = rng.uniform_int(0, 20);
    for (LogIndex i = 1; i <= len_a; ++i) {
      if (rng.chance(0.3)) ++ta;
      a.append(make_entry(ta, i, rng));
    }
    for (LogIndex i = 1; i <= len_b; ++i) {
      if (rng.chance(0.3)) ++tb;
      b.append(make_entry(tb, i, rng));
    }
    const bool a_accepts_b = a.candidate_is_up_to_date(b.last_index(), b.last_term());
    const bool b_accepts_a = b.candidate_is_up_to_date(a.last_index(), a.last_term());
    // At least one direction must hold (it is a total preorder).
    EXPECT_TRUE(a_accepts_b || b_accepts_a);
    // Both hold only when (last_term, last_index) are equal.
    if (a_accepts_b && b_accepts_a) {
      EXPECT_EQ(a.last_term(), b.last_term());
      EXPECT_EQ(a.last_index(), b.last_index());
    }
  }
}

}  // namespace
}  // namespace escape::raft
