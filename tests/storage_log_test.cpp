#include "raft/log.h"

#include <gtest/gtest.h>

#include <random>

namespace escape::raft {
namespace {

rpc::LogEntry entry(Term t, LogIndex i) {
  rpc::LogEntry e;
  e.term = t;
  e.index = i;
  e.command = {static_cast<std::uint8_t>(i & 0xFF)};
  return e;
}

TEST(LogTest, EmptyLog) {
  Log log;
  EXPECT_EQ(log.last_index(), 0);
  EXPECT_EQ(log.last_term(), 0);
  EXPECT_EQ(log.first_index(), 1);
  EXPECT_EQ(log.term_at(0), Term{0});
  EXPECT_FALSE(log.term_at(1).has_value());
  EXPECT_EQ(log.entry_at(1), nullptr);
  EXPECT_TRUE(log.matches(0, 0));
  EXPECT_FALSE(log.matches(1, 1));
}

TEST(LogTest, AppendAndQuery) {
  Log log;
  log.append(entry(1, 1));
  log.append(entry(1, 2));
  log.append(entry(2, 3));
  EXPECT_EQ(log.last_index(), 3);
  EXPECT_EQ(log.last_term(), 2);
  EXPECT_EQ(log.term_at(2), Term{1});
  EXPECT_EQ(log.term_at(3), Term{2});
  ASSERT_NE(log.entry_at(2), nullptr);
  EXPECT_EQ(log.entry_at(2)->index, 2);
  EXPECT_TRUE(log.matches(2, 1));
  EXPECT_FALSE(log.matches(2, 2));
}

TEST(LogTest, NonContiguousAppendThrows) {
  Log log;
  log.append(entry(1, 1));
  EXPECT_THROW(log.append(entry(1, 3)), std::logic_error);
  EXPECT_THROW(log.append(entry(1, 1)), std::logic_error);
}

TEST(LogTest, TruncateFrom) {
  Log log;
  for (LogIndex i = 1; i <= 5; ++i) log.append(entry(1, i));
  log.truncate_from(3);
  EXPECT_EQ(log.last_index(), 2);
  EXPECT_FALSE(log.term_at(3).has_value());
  log.append(entry(2, 3));  // re-append after truncation
  EXPECT_EQ(log.term_at(3), Term{2});
}

TEST(LogTest, TruncateBeyondTailIsNoop) {
  Log log;
  log.append(entry(1, 1));
  log.truncate_from(5);
  EXPECT_EQ(log.last_index(), 1);
}

TEST(LogTest, SliceClampsToTail) {
  Log log;
  for (LogIndex i = 1; i <= 5; ++i) log.append(entry(1, i));
  const auto s = log.slice(4, 10);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].index, 4);
  EXPECT_EQ(s[1].index, 5);
  EXPECT_TRUE(log.slice(6, 10).empty());
  EXPECT_EQ(log.slice(1, 2).size(), 2u);
}

TEST(LogTest, UpToDateComparison) {
  Log log;
  log.append(entry(1, 1));
  log.append(entry(3, 2));
  // Higher last term wins regardless of length.
  EXPECT_TRUE(log.candidate_is_up_to_date(1, 4));
  EXPECT_FALSE(log.candidate_is_up_to_date(10, 2));
  // Equal last term: longer (or equal) log wins.
  EXPECT_TRUE(log.candidate_is_up_to_date(2, 3));
  EXPECT_TRUE(log.candidate_is_up_to_date(3, 3));
  EXPECT_FALSE(log.candidate_is_up_to_date(1, 3));
}

TEST(LogTest, UpToDateAgainstEmptyLog) {
  Log log;
  EXPECT_TRUE(log.candidate_is_up_to_date(0, 0));
  EXPECT_TRUE(log.candidate_is_up_to_date(5, 2));
}

TEST(LogTest, TermIndexSearches) {
  Log log;
  log.append(entry(1, 1));
  log.append(entry(2, 2));
  log.append(entry(2, 3));
  log.append(entry(4, 4));
  EXPECT_EQ(log.first_index_of_term(2), LogIndex{2});
  EXPECT_EQ(log.last_index_of_term(2), LogIndex{3});
  EXPECT_EQ(log.first_index_of_term(4), LogIndex{4});
  EXPECT_FALSE(log.first_index_of_term(3).has_value());
  EXPECT_FALSE(log.last_index_of_term(9).has_value());
}

TEST(LogTest, CompactTo) {
  Log log;
  for (LogIndex i = 1; i <= 6; ++i) log.append(entry(1, i));
  log.compact_to(3);
  EXPECT_EQ(log.first_index(), 4);
  EXPECT_EQ(log.last_index(), 6);
  EXPECT_EQ(log.base(), 3);
  EXPECT_EQ(log.base_term(), 1);
  // The boundary retains its term (the consistency check must still match
  // there) but the entry itself is gone; deeper indices are unknown.
  EXPECT_EQ(log.term_at(3), Term{1});
  EXPECT_TRUE(log.matches(3, 1));
  EXPECT_EQ(log.entry_at(3), nullptr);
  EXPECT_FALSE(log.term_at(2).has_value());
  EXPECT_EQ(log.term_at(4), Term{1});
  // Appends continue at the tail.
  log.append(entry(2, 7));
  EXPECT_EQ(log.last_index(), 7);
  // Truncation inside the compacted range is illegal.
  EXPECT_THROW(log.truncate_from(2), std::logic_error);
  // Slice starting in the compacted prefix returns empty (caller snapshots).
  EXPECT_TRUE(log.slice(2, 3).empty());
  // Compacting backwards is a no-op; past the tail is illegal.
  log.compact_to(2);
  EXPECT_EQ(log.base(), 3);
  EXPECT_THROW(log.compact_to(8), std::logic_error);
}

TEST(LogTest, CompactEntireLogThenGrow) {
  Log log;
  for (LogIndex i = 1; i <= 3; ++i) log.append(entry(2, i));
  log.compact_to(3);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.last_index(), 3);
  // A fully compacted log keeps the boundary term as its last term, so the
  // election up-to-date comparison treats it as owning the absorbed suffix.
  EXPECT_EQ(log.last_term(), 2);
  EXPECT_FALSE(log.candidate_is_up_to_date(2, 2));
  EXPECT_TRUE(log.candidate_is_up_to_date(3, 2));
  log.append(entry(3, 4));
  EXPECT_EQ(log.term_at(4), Term{3});
  EXPECT_EQ(log.last_term(), 3);
}

TEST(LogTest, ResetToRebasesOntoSnapshot) {
  Log log;
  for (LogIndex i = 1; i <= 4; ++i) log.append(entry(1, i));
  // InstallSnapshot ahead of the tail: everything is discarded and the log
  // continues from the snapshot boundary.
  log.reset_to(10, 5);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.base(), 10);
  EXPECT_EQ(log.base_term(), 5);
  EXPECT_EQ(log.last_index(), 10);
  EXPECT_EQ(log.last_term(), 5);
  EXPECT_TRUE(log.matches(10, 5));
  EXPECT_FALSE(log.term_at(4).has_value());
  log.append(entry(5, 11));
  EXPECT_EQ(log.last_index(), 11);
}

TEST(LogTest, ApproxBytesTracksSuffixOnly) {
  Log log;
  for (LogIndex i = 1; i <= 4; ++i) log.append(entry(1, i));  // 1-byte commands
  EXPECT_EQ(log.approx_bytes(), 4 * 17u);
  log.compact_to(3);
  EXPECT_EQ(log.approx_bytes(), 17u);
}

TEST(LogTest, ApproxBytesMatchesRecomputationAfterRandomOps) {
  // approx_bytes() is a running count; after every op of a random sequence
  // it must equal the sum over the stored suffix.
  std::mt19937_64 rng(20261017);
  Log log;
  const auto recomputed = [&log] {
    std::size_t bytes = 0;
    for (LogIndex i = log.first_index(); i <= log.last_index(); ++i) {
      bytes += Log::entry_bytes(*log.entry_at(i));
    }
    return bytes;
  };
  Term term = 1;
  for (int step = 0; step < 5000; ++step) {
    const auto roll = rng() % 100;
    if (roll < 60) {
      rpc::LogEntry e;
      e.term = term;
      e.index = log.last_index() + 1;
      e.command.assign(rng() % 200, 0xAB);
      log.append(std::move(e));
    } else if (roll < 75 && log.size() > 0) {
      log.truncate_from(log.first_index() + static_cast<LogIndex>(rng() % log.size()));
      ++term;
    } else if (roll < 95 && log.size() > 0) {
      log.compact_to(log.base() + 1 + static_cast<LogIndex>(rng() % log.size()));
    } else if (roll >= 95) {
      log.reset_to(log.last_index() + static_cast<LogIndex>(rng() % 10), term);
    }
    ASSERT_EQ(log.approx_bytes(), recomputed()) << "after step " << step;
  }
}

}  // namespace
}  // namespace escape::raft
