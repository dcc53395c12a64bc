#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cluster.h"
#include "host.h"
#include "layers.h"
#include "openloop.h"
#include "serve/kv_client.h"
#include "sim/invariants.h"
#include "sim/presets.h"
#include "sim/scenario.h"
#include "stats.h"

namespace perfbench {

namespace {

using escape::kNoServer;

/// Every per-layer metric, so each traced run reports the full set; a layer
/// the workload never enters reads 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"common.crc32_mbps", "MB/s"},
    {"rpc.ae_encode_us", "us"},
    {"rpc.ae_decode_us", "us"},
    {"rpc.frame_us", "us"},
    {"serve.codec_us", "us"},
    {"serve.frames_per_wakeup", "count"},
    {"serve.bytes_per_op", "B"},
    {"serve.evicted", "count"},
    {"serve.decode_errors", "count"},
    {"net.msgs_recv_per_entry", "count"},
    {"raft.ae_per_entry", "count"},
    {"raft.entries_per_ae", "count"},
    {"raft.inflight_mean", "count"},
    {"raft.lease_read_frac", "ratio"},
    {"raft.reads_rejected_frac", "ratio"},
    {"raft.detect_ms", "ms"},
    {"raft.elect_ms", "ms"},
    {"raft.campaigns_per_failover", "count"},
    {"raft.split_vote_frac", "ratio"},
    {"raft.config_adoptions_per_min", "1/min"},
    {"storage.syncs_per_entry", "count"},
    {"storage.records_per_sync", "count"},
    {"storage.append_batch_us", "us"},
    {"storage.fsync_us", "us"},
    {"storage.recover_ms", "ms"},
    {"kv.apply_us", "us"},
    {"core.patrol_us_n3", "us"},
    {"core.patrol_us_n128", "us"},
    {"sim.events_per_wall_s", "1/s"},
    {"sim.msgs_per_failover", "count"},
    {"proc.threads", "count"},
    {"proc.ctx_switches_per_op", "count"},
    {"proc.cpu_us_per_op", "us"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.backlog_end", "count"},
};

constexpr int kSetups = 3;             // setup_s is the median of this many
constexpr double kWarmS = 1.0;         // discarded warm-up at the nominal rate
constexpr double kFixedShare = 0.6;    // of --seconds, at the fixed nominal rate
constexpr double kSubWindowS = 1.0;    // the fixed-rate window is split into these
// Generator lateness p99 that voids a sub-window (or a kill). Stalls of the
// whole VM on a shared host reach 10-20 ms; they are part of what a client
// there sees, and the due-time latency includes them. A generator more than
// 5% of a sub-window behind has lost its schedule: the rate it offered is
// no longer the nominal one.
constexpr double kLateBoundMs = 50.0;
constexpr std::size_t kValueBytes = 64;

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

void init_layers(Metrics& layer) {
  for (const auto& [name, unit] : kLayerMetrics) layer.set(name, 0, unit);
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

/// A durable cluster with its client and generator. Torn down generator
/// first, cluster last.
struct Deployment {
  std::unique_ptr<DurableCluster> cluster;
  std::unique_ptr<escape::serve::KvClient> client;
  std::unique_ptr<Generator> gen;

  void reset() {
    gen.reset();
    if (client) client->stop();
    client.reset();
    cluster.reset();
  }
  ~Deployment() { reset(); }
};

/// Boot to first leader, then write every key once: the set-up a user pays
/// before the first request is served at speed. Returns the milliseconds
/// from boot to the first acknowledged write.
double deploy(Deployment& d, const std::string& dir, std::uint64_t seed, const Mix& mix) {
  std::filesystem::create_directories(dir);
  const double boot = now_us();
  d.cluster = std::make_unique<DurableCluster>(dir, seed);
  if (d.cluster->wait_for_leader(10000) == kNoServer) {
    throw std::runtime_error("no leader within 10 s of boot");
  }
  escape::serve::KvClient::Options options;
  options.connections_per_server = 1;
  options.lanes = 512;
  d.client = std::make_unique<escape::serve::KvClient>(d.cluster->client_ports(), 1'000'000,
                                                       options);
  d.client->start();
  d.gen = std::make_unique<Generator>(*d.client, mix, escape::stream_seed(seed, 1));
  const std::optional<double> first_ack = d.gen->preload(512);
  if (!first_ack) throw std::runtime_error("preload Put failed");
  return (*first_ack - boot) / 1e3;
}

/// Sets up kSetups times from scratch and keeps the last deployment. Sets
/// setup_s to the median set-up and returns the median milliseconds from
/// boot to the first acknowledged write.
double set_up(Deployment& d, const RunArgs& args, const Mix& mix, Result& r) {
  std::vector<double> seconds, first_write_ms;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const std::string dir = args.data_dir + "/setup" + std::to_string(i);
    if (i > 0) std::filesystem::remove_all(args.data_dir + "/setup" + std::to_string(i - 1));
    const double t0 = now_us();
    first_write_ms.push_back(deploy(d, dir, args.seed, mix));
    seconds.push_back((now_us() - t0) / 1e6);
  }
  r.e2e.set("setup_s", median(seconds), "s");
  return median(first_write_ms);
}

/// After the run: every acknowledged Put reads back, the replicas agree on
/// the commit index, and the serving loops neither evicted a client nor saw
/// a corrupt frame.
void check_cluster(Deployment& d, const Totals& run_totals, Result& r) {
  d.gen->check_readback(r.violations);
  if (!d.cluster->commits_converge(5000)) {
    r.violations.push_back("live replicas' commit indexes did not converge within 5 s");
  }
  if (run_totals.evicted != 0) r.violations.push_back("serving loop evicted a client");
  if (run_totals.decode_errors != 0) r.violations.push_back("serving loop saw a corrupt frame");
}

/// Per-layer metrics derived from counter diffs around a window. "Per entry"
/// means per acknowledged Put: the replicas' own commit counters restart
/// from zero and recount the whole log whenever a replica restarts.
void counter_layers(const Totals& d, const ProcStats& p0, const ProcStats& p1, double ops,
                    double entries, double window_s, Metrics& layer) {
  layer.set("serve.frames_per_wakeup", ratio(d.frames_in, d.wakeups), "count");
  layer.set("serve.bytes_per_op", ratio(d.bytes_in + d.bytes_out, ops), "B");
  layer.set("serve.evicted", static_cast<double>(d.evicted), "count");
  layer.set("serve.decode_errors", static_cast<double>(d.decode_errors), "count");
  layer.set("net.msgs_recv_per_entry", ratio(d.messages_received, entries), "count");
  layer.set("raft.ae_per_entry", ratio(d.append_entries_sent, entries), "count");
  layer.set("raft.entries_per_ae", ratio(d.ae_entries, d.ae_batches), "count");
  layer.set("raft.inflight_mean", ratio(d.inflight_sum, d.inflight_samples), "count");
  const double reads = static_cast<double>(d.lease_reads + d.read_index_reads);
  layer.set("raft.lease_read_frac", ratio(d.lease_reads, reads), "ratio");
  layer.set("raft.reads_rejected_frac", ratio(d.reads_rejected, reads + d.reads_rejected),
            "ratio");
  layer.set("raft.config_adoptions_per_min", ratio(d.config_adoptions, window_s / 60), "1/min");
  layer.set("storage.syncs_per_entry", ratio(d.wal_syncs, entries), "count");
  layer.set("storage.records_per_sync", ratio(d.wal_records, d.wal_syncs), "count");
  layer.set("proc.threads", p1.threads, "count");
  layer.set("proc.ctx_switches_per_op", ratio(p1.ctx_switches - p0.ctx_switches, ops), "count");
  layer.set("proc.cpu_us_per_op", ratio((p1.cpu_s - p0.cpu_s) * 1e6, ops), "us");
}

Shapes shapes_of(const Totals& d) {
  Shapes s;
  s.entries_per_ae = ratio(d.ae_entries, d.ae_batches);
  s.records_per_sync = ratio(d.wal_records, d.wal_syncs);
  s.request_frame_bytes = ratio(d.bytes_in + d.bytes_out, d.frames_in + d.frames_out);
  s.value_bytes = kValueBytes;
  return s;
}

/// Restarts a follower and times construct + start (WAL replay included).
double time_follower_restart(DurableCluster& cluster) {
  const ServerId leader = cluster.leader();
  const ServerId victim = leader == 1 ? 2 : 1;
  cluster.kill(victim);
  return cluster.restart(victim);
}

double acked_puts(const std::vector<Record>& ops) {
  return static_cast<double>(
      std::count_if(ops.begin(), ops.end(), [](const Record& o) { return o.put && o.ok; }));
}

std::size_t count_failed(const std::vector<Record>& ops) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const Record& o) { return !o.ok; }));
}

void count_bad_reads(const std::vector<Record>& ops, Result& r) {
  for (const Record& o : ops) {
    if (o.ok && o.bad_read) {
      r.violations.push_back("Get of " + key_name(o.key) + " returned a value never written there");
      return;
    }
  }
}

// --- kv_write_durable / kv_read_mostly ---------------------------------------

struct KvSpec {
  Mix mix;
  double rate;    ///< fixed nominal rate, well below the knee
  double slo_ms;  ///< absolute p99 limit for the knee
};

Result run_kv(const RunArgs& args, const KvSpec& spec) {
  Result r;
  Deployment d;
  r.e2e.set("unavail_p50_ms", set_up(d, args, spec.mix, r), "ms");

  const double fixed_s = std::max(1.0, std::floor(args.seconds * kFixedShare));
  const double knee_budget_s = std::max(0.0, args.seconds - fixed_s - kWarmS);

  // Warm-up at the nominal rate; discarded.
  const Window warm = d.gen->run(spec.rate, kWarmS);
  count_bad_reads(warm.ops, r);
  r.attempted += warm.ops.size();
  r.failed += count_failed(warm.ops);

  const Totals t0 = d.cluster->totals();
  const ProcStats p0 = proc_stats();
  const Window w = d.gen->run(spec.rate, fixed_s);
  const ProcStats p1 = proc_stats();
  // Peak through set-up and the fixed-rate window; the knee search's
  // overload probes come later and would make it depend on where they stop.
  r.e2e.set("peak_rss_mb", p1.peak_rss_mb, "MB");
  const Totals t1 = d.cluster->totals();
  count_bad_reads(w.ops, r);
  r.attempted += w.ops.size();
  r.failed += count_failed(w.ops);

  // Medians over sub-windows of the per-window p50 and p99; a sub-window in
  // which the generator fell behind its own schedule is void.
  const auto windows = static_cast<std::size_t>(std::round(fixed_s / kSubWindowS));
  std::vector<std::vector<Op>> parts(windows);
  for (const Record& o : w.ops) {
    const auto i = static_cast<std::size_t>((o.due - w.start) / (kSubWindowS * 1e6));
    parts[std::min(i, windows - 1)].push_back(o);
  }
  std::vector<double> p50s, p99s;
  std::size_t void_windows = 0;
  double worst_late_ms = 0;
  for (const std::vector<Op>& part : parts) {
    const WindowStats s = summarize(part);
    worst_late_ms = std::max(worst_late_ms, percentile(s.late_ms, 99));
    if (!generator_kept_up(s, kLateBoundMs)) {
      ++void_windows;
      continue;
    }
    p50s.push_back(percentile(s.latency_ms, 50));
    p99s.push_back(percentile(s.latency_ms, 99));
  }
  if (p50s.size() * 2 < windows) {
    throw std::runtime_error(fmt("generator fell behind in %.0f of %.0f sub-windows (worst p99 "
                                 "lateness %.1f ms); no valid result",
                                 static_cast<double>(void_windows), static_cast<double>(windows),
                                 worst_late_ms));
  }
  const double acked = static_cast<double>(w.ops.size() - count_failed(w.ops));
  const WindowStats whole = summarize(w.ops);
  const Tail t = tail(whole.latency_ms);
  r.named.set("cpu_us_per_op", ratio((p1.cpu_s - p0.cpu_s) * 1e6, acked), "us");
  r.named.set("lat_p50_ms", median(p50s), "ms");
  r.named.set("lat_p99_ms", median(p99s), "ms");
  r.notes.push_back(fmt("fixed rate %.0f ops/s for %.0f s: whole-window p%g", spec.rate, fixed_s,
                        t.pct) +
                    fmt(" = %.3f ms over n=%.0f; p50/p99 are medians over ", t.value,
                        static_cast<double>(t.n)) +
                    fmt("%.0f sub-windows of %.1f s (%.0f void: generator late",
                        static_cast<double>(p50s.size()), kSubWindowS,
                        static_cast<double>(void_windows)) +
                    fmt(" by more than %.1f ms at p99; worst sub-window %.2f ms)", kLateBoundMs,
                        worst_late_ms));

  // Knee: the highest offered rate whose p99 (failures as misses) meets the
  // SLO with no failures and no backlog growth.
  KneeOptions ko;
  ko.start_rate = spec.rate;
  constexpr double kProbeS = 0.4;
  // A probe costs its window plus the drain of whatever backlog it built.
  ko.max_probes = std::max(4, static_cast<int>(knee_budget_s / (kProbeS + 0.2)));
  const KneeResult knee = find_knee(ko, spec.slo_ms, [&](double rate) {
    const Window pw = d.gen->run(rate, kProbeS);
    count_bad_reads(pw.ops, r);
    const WindowStats s = summarize(pw.ops);
    Probe p;
    p.p99_ms = percentile(s.latency_ms, 99);
    p.failed = s.failed;
    p.backlog_end = pw.backlog_end;
    p.generator_ok = generator_kept_up(s, kLateBoundMs);
    return p;
  });
  r.named.set("knee_ops", knee.knee, "ops/s");
  r.notes.push_back(fmt("knee search: SLO p99 <= %.1f ms, %.0f probes of 0.4 s, first failing "
                        "rate %.0f ops/s",
                        spec.slo_ms, knee.probes, knee.first_fail));

  const Totals run_totals = d.cluster->totals();
  check_cluster(d, run_totals, r);
  r.named.set("failed_frac", ratio(r.failed, r.attempted), "ratio");

  if (args.trace) {
    const Totals diff = t1 - t0;
    counter_layers(diff, p0, p1, acked, acked_puts(w.ops), fixed_s, r.layer);
    r.layer.set("loadgen.late_p99_ms", percentile(whole.late_ms, 99), "ms");
    r.layer.set("loadgen.backlog_end", static_cast<double>(w.backlog_end), "count");
    r.layer.set("storage.recover_ms", time_follower_restart(*d.cluster), "ms");
    if (!d.cluster->commits_converge(5000)) {
      r.violations.push_back("restarted follower did not catch up within 5 s");
    }
    time_layers(shapes_of(diff), d.cluster->data_dir(), r.layer);
  }
  return r;
}

// --- failover_durable ----------------------------------------------------------

struct Kill {
  double at = 0;         ///< µs, just before the leader was stopped
  double stopped = 0;    ///< µs, once it was gone
  double leader = 0;     ///< µs, a new leader was observed
  double campaign = 0;   ///< µs, first campaign observed (traced run only)
  double campaigns = 0;  ///< campaigns started until the new leader (traced run only)
  double restart_ms = 0;
  double rejoin_ms = 0;
};

Result run_failover(const RunArgs& args) {
  constexpr double kRate = 1000;
  constexpr int kSettleMs = 400;
  const Mix mix{1.0, false, 2000, kValueBytes};
  Result r;
  Deployment d;
  set_up(d, args, mix, r);

  const Totals t0 = d.cluster->totals();
  const ProcStats p0 = proc_stats();
  Window w;
  std::exception_ptr generator_error;
  std::thread generator([&] {
    try {
      w = d.gen->run(kRate, args.seconds);
    } catch (...) {
      generator_error = std::current_exception();
    }
  });
  // Joins on every path out, before the deployment the generator drives is
  // torn down.
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{generator};

  std::vector<Kill> kills;
  DurableCluster& c = *d.cluster;
  // Leave room for the last victim to restart and catch up before the
  // generator stops.
  const double last_kill = now_us() + (args.seconds - 2.0) * 1e6;
  sleep_ms(kSettleMs);
  // Gated peak: set-up and the first steady window, before any kill. The
  // run's own peak, restarts and WAL replays included, is printed as
  // peak_rss_run_mb; it is not gated because every restart's new threads
  // touch fresh malloc arenas, which puts a 12% run-to-run spread on it.
  r.e2e.set("peak_rss_mb", proc_stats().peak_rss_mb, "MB");
  while (now_us() < last_kill) {
    Kill k;
    const std::uint64_t campaigns0 = args.trace ? c.totals().campaigns : 0;
    k.at = now_us();
    const ServerId victim = c.kill_leader();
    k.stopped = now_us();
    if (victim == kNoServer) {
      sleep_ms(5);
      continue;
    }
    for (;;) {
      const double now = now_us();
      if (now - k.at > 10e6) break;
      if (args.trace) {
        const std::uint64_t campaigns = c.totals().campaigns;
        if (k.campaign == 0 && campaigns > campaigns0) k.campaign = now;
        k.campaigns = static_cast<double>(campaigns - campaigns0);
      }
      if (c.leader() != kNoServer) {
        k.leader = now;
        break;
      }
      sleep_ms(1);
    }
    if (k.leader == 0) r.violations.push_back("no new leader within 10 s of a kill");
    k.restart_ms = c.restart(victim);
    const double restarted = now_us();
    for (;;) {
      const ServerId leader = c.leader();
      if (leader != kNoServer && leader != victim &&
          c.server(victim)->node().commit_index() >= c.server(leader)->node().commit_index()) {
        break;
      }
      if (now_us() - restarted > 10e6) {
        r.violations.push_back("restarted replica did not catch up within 10 s");
        break;
      }
      sleep_ms(1);
    }
    k.rejoin_ms = (now_us() - restarted) / 1e3;
    kills.push_back(k);
    sleep_ms(kSettleMs);
  }
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  const ProcStats p1 = proc_stats();
  const Totals t1 = c.totals();
  count_bad_reads(w.ops, r);
  r.attempted = w.ops.size();
  r.failed = count_failed(w.ops);
  if (kills.empty()) throw std::runtime_error("the run was too short for a single kill");

  // Unavailability: from each kill to the first acknowledged write issued
  // after the old leader was gone. A kill during which the generator fell
  // behind its own schedule is void: its late submits would read as outage.
  std::vector<double> unavail, rejoin, detect, elect, campaigns, recover;
  std::size_t void_kills = 0;
  double worst_late_ms = 0;
  for (std::size_t i = 0; i < kills.size(); ++i) {
    const Kill& k = kills[i];
    const double until = i + 1 < kills.size() ? kills[i + 1].at : w.end;
    std::vector<Op> interval;
    for (const Record& o : w.ops) {
      if (o.due >= k.at && o.due < until) interval.push_back(o);
    }
    const WindowStats s = summarize(interval);
    worst_late_ms = std::max(worst_late_ms, percentile(s.late_ms, 99));
    if (!generator_kept_up(s, kLateBoundMs)) {
      ++void_kills;
      continue;
    }
    double first_ack = -1;
    for (const Record& o : w.ops) {
      if (o.ok && o.submit >= k.stopped && (first_ack < 0 || o.done < first_ack)) {
        first_ack = o.done;
      }
    }
    if (first_ack < 0) {
      r.violations.push_back("no write was acknowledged after a kill");
      continue;
    }
    unavail.push_back((first_ack - k.at) / 1e3);
    rejoin.push_back(k.rejoin_ms);
    recover.push_back(k.restart_ms);
    if (k.campaign > 0) {
      detect.push_back((k.campaign - k.at) / 1e3);
      elect.push_back((k.leader - k.campaign) / 1e3);
    }
    campaigns.push_back(k.campaigns);
  }
  if (void_kills * 2 > kills.size()) {
    throw std::runtime_error("generator fell behind during most kills; no valid result");
  }
  const double acked = static_cast<double>(w.ops.size() - r.failed);
  const WindowStats whole = summarize(w.ops);
  const double unavail_max =
      unavail.empty() ? 0 : *std::max_element(unavail.begin(), unavail.end());
  r.named.set("cpu_us_per_op", ratio((p1.cpu_s - p0.cpu_s) * 1e6, acked), "us");
  r.e2e.set("unavail_p50_ms", median(unavail), "ms");
  r.named.set("unavail_max_ms", unavail_max, "ms");
  r.named.set("rejoin_ms", median(rejoin), "ms");
  r.named.set("peak_rss_run_mb", p1.peak_rss_mb, "MB");
  r.named.set("lat_p50_ms", percentile(whole.latency_ms, 50), "ms");
  r.named.set("failed_frac", ratio(r.failed, r.attempted), "ratio");
  r.notes.push_back(fmt("%.0f leader kills under a %.0f ops/s write-only open loop; "
                        "unavail_max_ms is the maximum over the kills",
                        static_cast<double>(unavail.size()), kRate) +
                    fmt(" (%.0f void: generator late by more than %.1f ms at p99; ",
                        static_cast<double>(void_kills), kLateBoundMs) +
                    fmt("worst kill %.2f ms)", worst_late_ms));

  check_cluster(d, t1, r);

  if (args.trace) {
    const Totals diff = t1 - t0;
    counter_layers(diff, p0, p1, acked, acked_puts(w.ops), args.seconds, r.layer);
    r.layer.set("raft.detect_ms", median(detect), "ms");
    r.layer.set("raft.elect_ms", median(elect), "ms");
    double sum = 0, split = 0;
    for (const double n : campaigns) {
      sum += n;
      split += n > 1 ? 1 : 0;
    }
    r.layer.set("raft.campaigns_per_failover", ratio(sum, campaigns.size()), "count");
    r.layer.set("raft.split_vote_frac", ratio(split, campaigns.size()), "ratio");
    r.layer.set("storage.recover_ms", median(recover), "ms");
    r.layer.set("loadgen.late_p99_ms", percentile(whole.late_ms, 99), "ms");
    r.layer.set("loadgen.backlog_end", static_cast<double>(w.backlog_end), "count");
    time_layers(shapes_of(diff), d.cluster->data_dir(), r.layer);
  }
  return r;
}

// --- election_scale_sim -----------------------------------------------------------

constexpr std::size_t kSimNodes = 128;
constexpr double kSimLoss = 0.10;
constexpr std::size_t kSimSeries = 25;  // failovers per simulated cluster

std::uint64_t sim_adoptions(escape::sim::SimCluster& cluster) {
  std::uint64_t sum = 0;
  for (const ServerId id : cluster.members()) {
    if (cluster.alive(id)) sum += cluster.node(id).counters().config_adoptions;
  }
  return sum;
}

/// Counts one simulated series adds to the traced run.
struct SimCounts {
  double events = 0, msgs = 0, adoptions = 0, virtual_ms = 0;
  double cpu_s = 0, wall_s = 0;  ///< spent simulating failovers
};

Result run_sim(const RunArgs& args) {
  namespace sim = escape::sim;
  Result r;
  const sim::SeriesOptions series;  // the paper's series protocol (fig09/fig11)
  std::vector<double> setup, total, detect, elect, campaigns;
  SimCounts counts;
  const ProcStats p0 = proc_stats();
  const double wall0 = now_us();
  // Failovers run in series of kSimSeries on fresh clusters, as fig09/fig11
  // shard them, so a run's per-failover cost and memory do not grow with
  // how many failovers the host manages in --seconds.
  for (std::uint64_t index = 0; now_us() - wall0 < args.seconds * 1e6; ++index) {
    const double t0 = now_us();
    sim::ScenarioRunner runner(sim::presets::paper_cluster(
        kSimNodes, sim::presets::escape_policy(), escape::stream_seed(args.seed, index),
        kSimLoss));
    sim::InvariantChecker checker(runner.cluster());
    if (runner.bootstrap() == kNoServer) throw std::runtime_error("sim bootstrap failed");
    setup.push_back((now_us() - t0) / 1e6);

    sim::SimCluster& cluster = runner.cluster();
    const double events0 = static_cast<double>(cluster.loop().processed());
    const double msgs0 = static_cast<double>(cluster.network().stats().sent);
    const double adoptions0 = static_cast<double>(sim_adoptions(cluster));
    const escape::TimePoint virtual0 = cluster.loop().now();
    const ProcStats c0 = proc_stats();
    const double w0 = now_us();
    for (std::size_t i = 0; i < kSimSeries && now_us() - wall0 < args.seconds * 1e6; ++i) {
      cluster.clear_event_log();
      runner.runtime().clear_markers();
      sim::FaultPlan plan;
      plan.at(0, sim::TrafficBurst{series.traffic_window, series.traffic_interval});
      plan.at(series.traffic_window, sim::CrashNode{sim::NodeRef::leader()});
      const sim::FailoverResult f = runner.run_failover_plan(plan, series.max_wait);
      runner.runtime().disarm_deferred_crash();
      const ServerId victim = runner.runtime().last_crashed();
      if (victim != kNoServer && !cluster.alive(victim)) cluster.recover(victim);
      cluster.loop().run_until(cluster.loop().now() + series.settle);
      ++r.attempted;
      if (!f.converged) {
        ++r.failed;
        continue;
      }
      total.push_back(escape::to_ms_f(f.total));
      detect.push_back(escape::to_ms_f(f.detection));
      elect.push_back(escape::to_ms_f(f.election));
      campaigns.push_back(static_cast<double>(f.campaigns));
    }
    // The failovers' own cost; the deep invariant check below is not part
    // of it.
    counts.cpu_s += proc_stats().cpu_s - c0.cpu_s;
    counts.wall_s += (now_us() - w0) / 1e6;
    checker.deep_check();
    for (const std::string& v : checker.violations()) r.violations.push_back("sim: " + v);
    counts.events += static_cast<double>(cluster.loop().processed()) - events0;
    counts.msgs += static_cast<double>(cluster.network().stats().sent) - msgs0;
    counts.adoptions += static_cast<double>(sim_adoptions(cluster)) - adoptions0;
    counts.virtual_ms += escape::to_ms_f(cluster.loop().now() - virtual0);
  }
  const ProcStats p1 = proc_stats();
  if (total.empty()) throw std::runtime_error("no simulated failover converged");

  const Tail t = tail(total);
  const double failovers = static_cast<double>(r.attempted);
  r.e2e.set("setup_s", median(setup), "s");
  r.e2e.set("peak_rss_mb", p1.peak_rss_mb, "MB");
  r.e2e.set("unavail_p50_ms", median(total), "ms");
  r.named.set("cpu_us_per_op", counts.cpu_s * 1e6 / failovers, "us");
  r.named.set("sim_failover_p50_ms", median(total), "ms");
  r.named.set("sim_failover_tail_ms", t.value, "ms");
  r.named.set("sim_wall_ms_per_failover", counts.wall_s * 1e3 / failovers, "ms");
  r.named.set("failed_frac", ratio(r.failed, r.attempted), "ratio");
  r.notes.push_back(fmt("sim model: n=%.0f, latency U(100,200) ms virtual, %.0f%% broadcast "
                        "omission, heartbeat 500 ms, ESCAPE base 1500 ms k=500 ms",
                        kSimNodes, kSimLoss * 100));
  r.notes.push_back(fmt("sim_failover_tail_ms is p%g over n=%.0f failovers (virtual time), ", t.pct,
                        static_cast<double>(t.n)) +
                    fmt("in %.0f series; setup_s is the median of their set-ups",
                        static_cast<double>(setup.size())));

  if (args.trace) {
    double sum = 0, split = 0;
    for (const double n : campaigns) {
      sum += n;
      split += n > 1 ? 1 : 0;
    }
    r.layer.set("raft.detect_ms", median(detect), "ms");
    r.layer.set("raft.elect_ms", median(elect), "ms");
    r.layer.set("raft.campaigns_per_failover", ratio(sum, campaigns.size()), "count");
    r.layer.set("raft.split_vote_frac", ratio(split, campaigns.size()), "ratio");
    r.layer.set("raft.config_adoptions_per_min", ratio(counts.adoptions, counts.virtual_ms / 60000),
                "1/min");
    r.layer.set("sim.events_per_wall_s", counts.events / counts.wall_s, "1/s");
    r.layer.set("sim.msgs_per_failover", counts.msgs / failovers, "count");
    r.layer.set("proc.threads", p1.threads, "count");
    r.layer.set("proc.ctx_switches_per_op", (p1.ctx_switches - p0.ctx_switches) / failovers,
                "count");
    r.layer.set("proc.cpu_us_per_op", counts.cpu_s * 1e6 / failovers, "us");
    // No sockets, disk or kv here: of the timed layers only core's patrol
    // runs in the simulation.
    time_core(r.layer);
  }
  return r;
}

}  // namespace

Result run_workload(const RunArgs& args) {
  Result r;
  if (args.workload == "kv_write_durable") {
    r = run_kv(args, KvSpec{Mix{1.0, false, 2000, kValueBytes}, 2000, 10});
  } else if (args.workload == "kv_read_mostly") {
    r = run_kv(args, KvSpec{Mix{0.05, true, 2000, kValueBytes}, 4000, 5});
  } else if (args.workload == "failover_durable") {
    r = run_failover(args);
  } else if (args.workload == "election_scale_sim") {
    r = run_sim(args);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  if (args.trace) {
    Metrics full;
    init_layers(full);
    for (const Metric& m : r.layer.items()) full.set(m.name, m.value, m.unit);
    r.layer = full;
  }
  return r;
}

}  // namespace perfbench
