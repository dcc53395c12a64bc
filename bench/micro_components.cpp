// Micro-benchmarks (google-benchmark) for the hot components: message
// serde, wire framing, CRC, log operations, the event loop, and the PPF
// rearrangement — the paper claims the leader's sort-and-assign patrol has
// only linear cost (Section IV-C); BM_PpfPatrol quantifies it across n.
#include <benchmark/benchmark.h>

#include "core/escape_policy.h"
#include "raft/log.h"
#include "rpc/messages.h"
#include "rpc/wire.h"
#include "sim/event_loop.h"

namespace {

using namespace escape;

rpc::Message sample_append_entries(std::size_t entries) {
  rpc::AppendEntries ae;
  ae.term = 12;
  ae.leader_id = 1;
  ae.prev_log_index = 100;
  ae.prev_log_term = 11;
  ae.leader_commit = 99;
  rpc::Configuration cfg;
  cfg.priority = 5;
  cfg.conf_clock = 77;
  cfg.timer_period = from_ms(1500);
  ae.new_config = cfg;
  for (std::size_t i = 0; i < entries; ++i) {
    rpc::LogEntry e;
    e.term = 12;
    e.index = 101 + static_cast<LogIndex>(i);
    e.command.assign(64, static_cast<std::uint8_t>(i));
    ae.entries.push_back(std::move(e));
  }
  return ae;
}

void BM_EncodeAppendEntries(benchmark::State& state) {
  const auto msg = sample_append_entries(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto buf = rpc::encode_message(msg);
    bytes += buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeAppendEntries)->Arg(0)->Arg(8)->Arg(64);

void BM_DecodeAppendEntries(benchmark::State& state) {
  const auto buf = rpc::encode_message(sample_append_entries(static_cast<std::size_t>(state.range(0))));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto msg = rpc::decode_message(buf);
    bytes += buf.size();
    benchmark::DoNotOptimize(msg);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DecodeAppendEntries)->Arg(0)->Arg(8)->Arg(64);

void BM_FrameRoundtrip(benchmark::State& state) {
  const auto msg = sample_append_entries(8);
  for (auto _ : state) {
    auto framed = rpc::frame_message(msg);
    rpc::FrameReader reader;
    reader.feed(framed.data(), framed.size());
    auto payload = reader.next();
    benchmark::DoNotOptimize(payload);
  }
}
BENCHMARK(BM_FrameRoundtrip);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_LogAppendTruncate(benchmark::State& state) {
  for (auto _ : state) {
    raft::Log log;
    for (LogIndex i = 1; i <= state.range(0); ++i) {
      rpc::LogEntry e;
      e.term = 1;
      e.index = i;
      log.append(std::move(e));
    }
    log.truncate_from(state.range(0) / 2);
    benchmark::DoNotOptimize(log.last_index());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogAppendTruncate)->Arg(256)->Arg(4096);

void BM_LogSlice(benchmark::State& state) {
  raft::Log log;
  for (LogIndex i = 1; i <= 8192; ++i) {
    rpc::LogEntry e;
    e.term = 1;
    e.index = i;
    e.command.assign(64, 1);
    log.append(std::move(e));
  }
  for (auto _ : state) {
    auto s = log.slice(4000, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LogSlice)->Arg(16)->Arg(128);

// The paper's Section IV-C cost claim: the leader's patrol (rank followers,
// reassign the configuration pool) is linear-ish; measure it from n=8 to
// n=1024 servers.
void BM_PpfPatrol(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::EscapePolicy policy(1, n, core::EscapeOptions{});
  std::vector<ServerId> others;
  for (ServerId id = 2; id <= n; ++id) others.push_back(id);
  policy.on_become_leader(others, 1);
  // Mixed responsiveness so ranking actually reorders.
  for (ServerId id : others) {
    rpc::ConfigStatus st;
    st.log_index = static_cast<LogIndex>(id % 7);
    st.conf_clock = 0;
    policy.on_follower_status(id, st);
  }
  for (auto _ : state) {
    policy.begin_heartbeat_round();
    benchmark::DoNotOptimize(policy.issued_clock());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PpfPatrol)->Arg(8)->Arg(64)->Arg(128)->Arg(512)->Arg(1024);

void BM_EventLoopChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < state.range(0); ++i) {
      loop.schedule_at(i, [] {});
    }
    loop.run_until(state.range(0));
    benchmark::DoNotOptimize(loop.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoopChurn)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
