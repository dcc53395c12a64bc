// Stochastic Configuration Assignment (SCA) arithmetic — Section IV-A.
//
// A configuration π(P, k) pairs a priority P with an election timeout derived
// from Eq. 1:
//
//     period(P) = baseTime + gap · (n − P)
//
// so the highest priority (P = n) has the shortest timeout (baseTime) and
// detects a failed leader first. A candidate's term advances by its priority
// when it campaigns (Eq. 2), which scatters simultaneous campaigns into
// different terms; received terms merge by max (Eq. 3 — standard Raft
// behaviour, unchanged in RaftNode).
#pragma once

#include <cstddef>

#include "common/types.h"
#include "rpc/messages.h"

namespace escape::core {

/// Parameters of ESCAPE's configuration scheme.
struct EscapeOptions {
  /// Eq. 1 baseTime: minimum election timeout; must comfortably exceed the
  /// network latency. The paper's evaluation uses 1500 ms.
  Duration base_time = from_ms(1500);

  /// Eq. 1 k: per-priority timeout gap. The paper recommends at least 2x the
  /// network latency and evaluates with 500 ms.
  Duration gap = from_ms(500);

  /// Enables the probing patrol function (Section IV-B). With PPF disabled
  /// the policy degenerates to Z-Raft: fixed server-ID priorities, no
  /// rearrangement, no configuration clock advancement (Section VI-D).
  bool enable_ppf = true;

  /// Enables the confClock staleness vote rule ("servers never vote for
  /// candidates whose configuration clock is stale"). Disabling it is
  /// ablation B: recovered servers with stale priorities can split votes.
  bool conf_clock_vote_rule = true;

  /// Rearrange + redistribute configurations every this many heartbeat
  /// rounds. 1 = piggyback on every heartbeat (paper default); larger values
  /// model the "separate heartbeat at a low interval rate" optimization of
  /// Section IV-C (ablation D).
  int patrol_every = 1;
};

/// Configuration-clock stride per term. A new leader floors its clock at
/// term * kConfClockStride before minting rearrangement generations, so the
/// clock ranges minted by distinct leaderships are disjoint (election safety
/// gives at most one leader per term, and terms strictly increase across
/// leaderships). Without the floor, a leader that crashes after stamping a
/// generation but before any follower adopts it leaves that clock value
/// unknowable to its successor, which can re-mint it with different
/// contents — two configurations sharing a confClock, the exact Lemma 3
/// violation SimCheck found. A leadership would need 2^20 rearrangements to
/// overflow its range; the patrol only mints on material responsiveness
/// changes, so real runs stay orders of magnitude below that.
inline constexpr ConfClock kConfClockStride = ConfClock{1} << 20;

/// Eq. 1: election timeout implied by priority `p` in an `n`-server cluster.
/// Eq. 1's ladder spans [baseTime, baseTime + gap·(n−1)] for P in {1..n}; a
/// priority *above* n can only come from a self-assigned initial config whose
/// id exceeds the current voter count (a server joining an established
/// cluster). Flooring at baseTime keeps such off-ladder configs sane — an
/// unclamped period would go non-positive and the timer would fire every
/// tick, a campaign livelock.
constexpr Duration election_period(const EscapeOptions& opts, std::size_t n, Priority p) {
  const Duration ladder =
      opts.base_time + opts.gap * (static_cast<Duration>(n) - static_cast<Duration>(p));
  return ladder < opts.base_time ? opts.base_time : ladder;
}

/// The initial (clock-0) configuration a server self-assigns when joining:
/// priority = server id (SCA "priorities implemented by server IDs").
inline rpc::Configuration initial_configuration(const EscapeOptions& opts, std::size_t n,
                                                ServerId id) {
  rpc::Configuration c;
  c.priority = static_cast<Priority>(id);
  c.timer_period = election_period(opts, n, c.priority);
  c.conf_clock = 0;
  return c;
}

}  // namespace escape::core
