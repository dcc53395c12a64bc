#include "storage/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace escape::storage {
namespace {

rpc::LogEntry entry(Term t, LogIndex i) {
  rpc::LogEntry e;
  e.term = t;
  e.index = i;
  e.command = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(t)};
  return e;
}

TEST(MemoryWalTest, AppendTruncateReplay) {
  MemoryWal wal;
  wal.append(entry(1, 1));
  wal.append(entry(1, 2));
  wal.append(entry(1, 3));
  wal.truncate_from(2);
  wal.append(entry(2, 2));
  ASSERT_EQ(wal.entries().size(), 2u);
  EXPECT_EQ(wal.entries()[0].term, 1);
  EXPECT_EQ(wal.entries()[1].term, 2);
}

TEST(MemoryWalTest, NonContiguousAppendThrows) {
  MemoryWal wal;
  wal.append(entry(1, 1));
  EXPECT_THROW(wal.append(entry(1, 3)), std::logic_error);
}

TEST(MemoryWalTest, AppendBatchMatchesLoopOfAppends) {
  MemoryWal wal;
  wal.append(entry(1, 1));
  wal.append_batch({entry(1, 2), entry(1, 3), entry(2, 4)});
  ASSERT_EQ(wal.entries().size(), 4u);
  for (LogIndex i = 1; i <= 4; ++i) {
    EXPECT_EQ(wal.entries()[static_cast<std::size_t>(i - 1)].index, i);
  }
  // Contiguity is enforced across the batch boundary too.
  EXPECT_THROW(wal.append_batch({entry(2, 7)}), std::logic_error);
}

class FileWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("escape_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string wal_path() const { return (dir_ / "node.wal").string(); }

  /// File names of the WAL's segments in the directory, sorted.
  std::vector<std::string> wal_files() const {
    std::vector<std::string> names;
    for (const auto& item : std::filesystem::directory_iterator(dir_)) {
      names.push_back(item.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  /// Indices of `wal`'s recovered entries, which must be contiguous.
  static std::vector<LogIndex> indices(const FileWal& wal) {
    std::vector<LogIndex> out;
    for (const auto& e : wal.recovered_entries()) out.push_back(e.index);
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(FileWalTest, FreshFileRecoversEmpty) {
  FileWal wal(wal_path());
  EXPECT_TRUE(wal.recovered_entries().empty());
}

TEST_F(FileWalTest, AppendThenRecover) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 10; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 10u);
  for (LogIndex i = 1; i <= 10; ++i) {
    EXPECT_EQ(reopened.recovered_entries()[static_cast<std::size_t>(i - 1)], entry(1, i));
  }
}

TEST_F(FileWalTest, TruncateRecordsReplay) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 5; ++i) wal.append(entry(1, i));
    wal.truncate_from(3);
    wal.append(entry(2, 3));
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 3u);
  EXPECT_EQ(reopened.recovered_entries()[2].term, 2);
}

TEST_F(FileWalTest, TornTailRecordDiscarded) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 4; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  // Simulate a torn write: chop bytes off the end of the file.
  const auto size = std::filesystem::file_size(wal_path());
  std::filesystem::resize_file(wal_path(), size - 3);

  FileWal reopened(wal_path());
  EXPECT_EQ(reopened.recovered_entries().size(), 3u);
  // The WAL must remain appendable after truncating the torn record.
  reopened.append(entry(1, 4));
  reopened.sync();
  FileWal again(wal_path());
  EXPECT_EQ(again.recovered_entries().size(), 4u);
}

TEST_F(FileWalTest, CorruptMiddleRecordStopsReplay) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 6; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  // Flip a byte roughly in the middle of the file (inside record ~3).
  const auto size = std::filesystem::file_size(wal_path());
  std::fstream f(wal_path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<long>(size / 2));
  char b = 0x5A;
  f.write(&b, 1);
  f.close();

  FileWal reopened(wal_path());
  // Everything before the corrupt record survives; everything after is
  // conservatively dropped.
  EXPECT_LT(reopened.recovered_entries().size(), 6u);
  for (std::size_t i = 0; i < reopened.recovered_entries().size(); ++i) {
    EXPECT_EQ(reopened.recovered_entries()[i].index, static_cast<LogIndex>(i + 1));
  }
}

TEST_F(FileWalTest, ReopenAppendReopen) {
  {
    FileWal wal(wal_path());
    wal.append(entry(1, 1));
    wal.sync();
  }
  {
    FileWal wal(wal_path());
    ASSERT_EQ(wal.recovered_entries().size(), 1u);
    wal.append(entry(1, 2));
    wal.sync();
  }
  FileWal wal(wal_path());
  EXPECT_EQ(wal.recovered_entries().size(), 2u);
}

TEST_F(FileWalTest, AppendBatchRecoversAllRecords) {
  {
    FileWal wal(wal_path());
    wal.append(entry(1, 1));
    std::vector<rpc::LogEntry> batch;
    for (LogIndex i = 2; i <= 9; ++i) batch.push_back(entry(1, i));
    wal.append_batch(batch);  // one buffered write for the whole group
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 9u);
  for (LogIndex i = 1; i <= 9; ++i) {
    EXPECT_EQ(reopened.recovered_entries()[static_cast<std::size_t>(i - 1)], entry(1, i));
  }
}

TEST_F(FileWalTest, TornTailInsideBatchRecoversPrefix) {
  // A crash mid-group-commit tears the batch's single write. Each record in
  // the buffer is individually framed and checksummed, so replay keeps the
  // batch's intact prefix and discards only the torn tail — exactly the
  // guarantee the group-commit driver relies on: a batch is all-durable only
  // after sync(), but a partial batch never corrupts recovery.
  {
    FileWal wal(wal_path());
    wal.append(entry(1, 1));
    wal.append_batch({entry(1, 2), entry(1, 3), entry(1, 4), entry(1, 5)});
    wal.sync();
  }
  // Tear into the middle of the batch: chop the last record plus a few bytes
  // of the one before it.
  const auto size = std::filesystem::file_size(wal_path());
  std::filesystem::resize_file(wal_path(), size - (size / 4));

  FileWal reopened(wal_path());
  const auto& recovered = reopened.recovered_entries();
  ASSERT_GE(recovered.size(), 1u);
  ASSERT_LT(recovered.size(), 5u);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], entry(1, static_cast<LogIndex>(i + 1)));
  }
  // Appendable after the tear: the next incarnation re-replicates the rest.
  const LogIndex next = recovered.back().index + 1;
  reopened.append(entry(2, next));
  reopened.sync();
  FileWal again(wal_path());
  ASSERT_EQ(again.recovered_entries().size(), recovered.size() + 1);
  EXPECT_EQ(again.recovered_entries().back().term, 2);
}

TEST_F(FileWalTest, TruncateToEmptyThenRebuild) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 3; ++i) wal.append(entry(1, i));
    wal.truncate_from(1);
    wal.append(entry(5, 1));
    wal.sync();
  }
  FileWal reopened(wal_path());
  ASSERT_EQ(reopened.recovered_entries().size(), 1u);
  EXPECT_EQ(reopened.recovered_entries()[0].term, 5);
}

// --- segment rollover ----------------------------------------------------------

std::vector<LogIndex> range(LogIndex from, LogIndex to) {
  std::vector<LogIndex> out;
  for (LogIndex i = from; i <= to; ++i) out.push_back(i);
  return out;
}

TEST_F(FileWalTest, NeverCompactedWalStaysOneFile) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 50; ++i) wal.append(entry(1, i));
    wal.truncate_from(40);
    wal.sync();
  }
  FileWal reopened(wal_path());
  EXPECT_EQ(wal_files(), std::vector<std::string>{"node.wal"});
  EXPECT_EQ(indices(reopened), range(1, 39));
}

TEST_F(FileWalTest, CompactRollsSegmentsAndUnlinksCoveredOnes) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 10; ++i) wal.append(entry(1, i));
    wal.compact_to(5);
    // Entries 6..10 still live in node.wal, so it stays.
    EXPECT_EQ(wal_files(), (std::vector<std::string>{"node.wal", "node.wal.00000001"}));
    for (LogIndex i = 11; i <= 20; ++i) wal.append(entry(1, i));
    wal.compact_to(15);
    // node.wal holds only indices <= 15 now; segment 1 reaches 20.
    EXPECT_EQ(wal_files(), (std::vector<std::string>{"node.wal.00000001", "node.wal.00000002"}));
    for (LogIndex i = 21; i <= 25; ++i) wal.append(entry(2, i));
    wal.sync();
  }
  {
    // Replay starts at segment 1, whose appends begin at 11 above its
    // compact record at 5: the unlinked file held 6..10, and the later
    // compact record at 15 covers them.
    FileWal reopened(wal_path());
    EXPECT_EQ(reopened.recovered_base(), 15);
    EXPECT_EQ(indices(reopened), range(16, 25));
    reopened.append(entry(2, 26));
    // A compaction beyond the tail (an installed snapshot) covers everything.
    reopened.compact_to(30);
    EXPECT_EQ(wal_files(), std::vector<std::string>{"node.wal.00000003"});
    reopened.append(entry(3, 31));
    reopened.sync();
  }
  FileWal again(wal_path());
  EXPECT_EQ(again.recovered_base(), 30);
  EXPECT_EQ(indices(again), range(31, 31));
  EXPECT_EQ(again.recovered_entries()[0].term, 3);
}

TEST_F(FileWalTest, CompactWithinOpenSegmentKeepsTruncatedSuffixRules) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 12; ++i) wal.append(entry(1, i));
    wal.compact_to(6);
    wal.truncate_from(10);  // divergence past the snapshot, recorded in segment 1
    wal.append(entry(2, 10));
    wal.sync();
  }
  FileWal reopened(wal_path());
  EXPECT_EQ(reopened.recovered_base(), 6);
  EXPECT_EQ(indices(reopened), range(7, 10));
  EXPECT_EQ(reopened.recovered_entries().back().term, 2);
}

TEST_F(FileWalTest, TruncateBelowTheFirstSurvivingAppendStillReplays) {
  // Segment 1 starts appending at 11 (its predecessor held 5..10), then a
  // new leader truncates from 8 — into the predecessor — and rewrites. Once
  // the predecessor is unlinked, replay meets that truncate below the first
  // append it has seen; it must not mistake it for a corrupt record.
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 10; ++i) wal.append(entry(1, i));
    wal.compact_to(4);
    wal.append(entry(1, 11));
    wal.append(entry(1, 12));
    wal.truncate_from(8);
    for (LogIndex i = 8; i <= 14; ++i) wal.append(entry(2, i));
    wal.compact_to(12);
    EXPECT_EQ(wal_files(), (std::vector<std::string>{"node.wal.00000001", "node.wal.00000002"}));
    wal.append(entry(2, 15));
    wal.sync();
  }
  FileWal reopened(wal_path());
  EXPECT_EQ(reopened.recovered_base(), 12);
  EXPECT_EQ(indices(reopened), range(13, 15));
  for (const auto& e : reopened.recovered_entries()) EXPECT_EQ(e.term, 2);
  EXPECT_EQ(wal_files().size(), 2u);
}

TEST_F(FileWalTest, CorruptOlderSegmentDropsEveryLaterSegment) {
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 10; ++i) wal.append(entry(1, i));
    wal.compact_to(5);
    for (LogIndex i = 11; i <= 20; ++i) wal.append(entry(1, i));
    wal.compact_to(8);  // node.wal still reaches 10: nothing unlinked
    for (LogIndex i = 21; i <= 22; ++i) wal.append(entry(1, i));
    wal.sync();
  }
  ASSERT_EQ(wal_files().size(), 3u);
  const std::string middle = (dir_ / "node.wal.00000001").string();
  const auto size = std::filesystem::file_size(middle);
  {
    std::fstream f(middle, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<long>(size / 2));
    const char b = 0x5A;
    f.write(&b, 1);
  }
  std::vector<LogIndex> first;
  {
    FileWal reopened(wal_path());
    // Segment 2 followed the corrupt record: replaying it next time would
    // resurrect a suffix this open dropped, so it is gone.
    EXPECT_EQ(wal_files(), (std::vector<std::string>{"node.wal", "node.wal.00000001"}));
    EXPECT_EQ(reopened.recovered_base(), 5);
    first = indices(reopened);
    ASSERT_FALSE(first.empty());
    EXPECT_LT(first.back(), 20);
    EXPECT_EQ(first, range(6, first.back()));
  }
  FileWal again(wal_path());
  EXPECT_EQ(indices(again), first);
}

TEST_F(FileWalTest, ForwardGapRebasesOntoTheGap) {
  // A node installed a snapshot through 8, the crash lost the compact
  // record, and the restarted node appended above the snapshot.
  {
    FileWal wal(wal_path());
    for (LogIndex i = 1; i <= 3; ++i) wal.append(entry(1, i));
    wal.append(entry(4, 9));
    wal.append(entry(4, 10));
    wal.sync();
  }
  FileWal reopened(wal_path());
  EXPECT_EQ(reopened.recovered_base(), 8);
  EXPECT_EQ(indices(reopened), range(9, 10));
}

}  // namespace
}  // namespace escape::storage
