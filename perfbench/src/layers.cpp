#include "layers.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/serde.h"
#include "core/escape_policy.h"
#include "kv/kv_command.h"
#include "kv/kv_store.h"
#include "openloop.h"
#include "rpc/messages.h"
#include "rpc/wire.h"
#include "serve/kv_wire.h"
#include "stats.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

using namespace escape;

/// Defeats dead-code elimination of a timed result.
volatile std::uint64_t g_sink = 0;

/// Median over `reps` repetitions of the mean µs per call of `fn`.
template <class Fn>
double time_us(std::size_t iters, Fn&& fn, int reps = 5) {
  std::vector<double> per_call;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_us();
    for (std::size_t i = 0; i < iters; ++i) g_sink = g_sink + fn(i);
    per_call.push_back((now_us() - t0) / static_cast<double>(iters));
  }
  return median(per_call);
}

std::vector<std::uint8_t> put_command(std::uint64_t seq, std::size_t value_bytes) {
  kv::Command cmd;
  cmd.client_id = 1;
  cmd.sequence = seq;
  cmd.op = kv::Op::kPut;
  const auto key = static_cast<std::uint32_t>(seq % 2000);
  cmd.key = key_name(key);
  cmd.value = value_for(seq, key, value_bytes);
  return kv::encode_command(cmd);
}

rpc::Message append_entries(std::size_t entries, std::size_t value_bytes) {
  rpc::AppendEntries ae;
  ae.term = 3;
  ae.leader_id = 1;
  ae.prev_log_index = 1000;
  ae.prev_log_term = 3;
  ae.leader_commit = 999;
  for (std::size_t i = 0; i < entries; ++i) {
    rpc::LogEntry e;
    e.term = 3;
    e.index = 1001 + static_cast<LogIndex>(i);
    e.command = put_command(i + 1, value_bytes);
    ae.entries.push_back(std::move(e));
  }
  return ae;
}

/// One heartbeat round of the PPF patrol at cluster size n, driven the way
/// bench/micro_components.cpp's BM_PpfPatrol drives it.
double patrol_us(std::size_t n, std::size_t iters) {
  core::EscapePolicy policy(1, n, core::EscapeOptions{});
  std::vector<ServerId> others;
  for (ServerId id = 2; id <= static_cast<ServerId>(n); ++id) others.push_back(id);
  policy.on_become_leader(others, 1);
  for (const ServerId id : others) {
    rpc::ConfigStatus st;
    st.log_index = static_cast<LogIndex>(id % 7);
    st.conf_clock = 0;
    policy.on_follower_status(id, st);
  }
  return time_us(iters, [&](std::size_t) {
    policy.begin_heartbeat_round();
    return static_cast<std::uint64_t>(policy.issued_clock());
  });
}

}  // namespace

void time_layers(const Shapes& shapes, const std::string& data_dir, Metrics& out) {
  const auto entries =
      static_cast<std::size_t>(std::max(1.0, std::round(shapes.entries_per_ae)));
  const auto records =
      static_cast<std::size_t>(std::max(1.0, std::round(shapes.records_per_sync)));

  // rpc: one AppendEntries as the workload's leader ships it.
  const rpc::Message ae = append_entries(entries, shapes.value_bytes);
  const std::vector<std::uint8_t> ae_bytes = rpc::encode_message(ae);
  out.set("rpc.ae_encode_us",
          time_us(2000, [&](std::size_t) { return rpc::encode_message(ae).size(); }), "us");
  out.set("rpc.ae_decode_us", time_us(2000, [&](std::size_t) {
            return static_cast<std::uint64_t>(rpc::decode_message(ae_bytes).index());
          }), "us");
  out.set("rpc.frame_us",
          time_us(2000, [&](std::size_t) { return rpc::frame_payload(ae_bytes).size(); }), "us");

  // common: CRC32 over the workload's two frame sizes, alternately.
  const auto request_bytes =
      static_cast<std::size_t>(std::max(16.0, std::round(shapes.request_frame_bytes)));
  const std::vector<std::uint8_t> small(request_bytes, 0x5A);
  const double crc_us = time_us(4000, [&](std::size_t) {
    return static_cast<std::uint64_t>(crc32(small) ^ crc32(ae_bytes));
  });
  out.set("common.crc32_mbps", static_cast<double>(small.size() + ae_bytes.size()) / crc_us,
          "MB/s");

  // serve: the client's codec work per request (encode the request, decode
  // its response).
  serve::Request request;
  request.request_id = 7;
  request.command.op = kv::Op::kPut;
  request.command.key = key_name(42);
  request.command.value = value_for(42, 42, shapes.value_bytes);
  serve::Response response;
  response.request_id = 7;
  response.status = serve::Status::kOk;
  response.result.ok = true;
  response.result.value = request.command.value;
  const auto response_bytes = serve::encode_response(response);
  out.set("serve.codec_us", time_us(4000, [&](std::size_t) {
            return serve::encode_request(request).size() +
                   static_cast<std::size_t>(serve::decode_response(response_bytes).has_value());
          }), "us");

  // storage: a FileWal beside the cluster's, at the observed group size.
  {
    const std::string path = data_dir + "/layer-probe.wal";
    std::filesystem::remove(path);
    storage::FileWal wal(path);
    std::vector<double> append_us, fsync_us;
    LogIndex next = 1;
    for (int round = 0; round < 200; ++round) {
      std::vector<rpc::LogEntry> batch;
      for (std::size_t i = 0; i < records; ++i, ++next) {
        rpc::LogEntry e;
        e.term = 1;
        e.index = next;
        e.command = put_command(static_cast<std::uint64_t>(next), shapes.value_bytes);
        batch.push_back(std::move(e));
      }
      const double t0 = now_us();
      wal.append_batch(batch);
      const double t1 = now_us();
      wal.sync();
      fsync_us.push_back(now_us() - t1);
      append_us.push_back(t1 - t0);
    }
    out.set("storage.append_batch_us", median(append_us), "us");
    out.set("storage.fsync_us", median(fsync_us), "us");
    std::filesystem::remove(path);
  }

  // kv: apply of committed Puts, 2000 keys.
  {
    constexpr std::size_t kOps = 20000;
    std::vector<rpc::LogEntry> log(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      log[i].term = 1;
      log[i].index = static_cast<LogIndex>(i + 1);
      log[i].command = put_command(i + 1, shapes.value_bytes);
    }
    std::vector<double> per_op;
    for (int rep = 0; rep < 5; ++rep) {
      kv::KvStore store;
      const double t0 = now_us();
      for (const auto& e : log) g_sink = g_sink + store.apply(e).size();
      per_op.push_back((now_us() - t0) / kOps);
    }
    out.set("kv.apply_us", median(per_op), "us");
  }

  time_core(out);
}

void time_core(Metrics& out) {
  out.set("core.patrol_us_n3", patrol_us(3, 100000), "us");
  out.set("core.patrol_us_n128", patrol_us(128, 1000), "us");
}

}  // namespace perfbench
