// The ESCAPE election policy — the paper's core contribution (Section IV).
//
// Follower side: the adopted configuration π(P, k) dictates the election
// timeout (Eq. 1), the term jump on candidacy (Eq. 2), the confClock stamped
// on RequestVote, and the staleness vote rule.
//
// Leader side (probing patrol function, Section IV-B): each heartbeat round
// the leader (1) ranks followers by log responsiveness reported in
// AppendEntriesReply.status, (2) rearranges the pool of n−1 configurations so
// higher priorities go to more up-to-date followers, (3) stamps the
// assignments with a freshly incremented confClock, and (4) piggybacks each
// follower's assignment on its next AppendEntries. The leader itself holds
// the bottom priority (its timer is disarmed while leading — "NA/∞" in
// Figure 5), so the distributed pool is {2..n}.
//
// With `enable_ppf == false` the policy is exactly Z-Raft (Section VI-D):
// fixed server-ID priorities with no rearrangement and no clock.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "raft/election_policy.h"

namespace escape::core {

class EscapePolicy final : public raft::ElectionPolicy {
 public:
  /// `self` is this server's id; `cluster_size` the total member count n.
  EscapePolicy(ServerId self, std::size_t cluster_size, EscapeOptions options = {});

  std::string name() const override { return options_.enable_ppf ? "escape" : "zraft"; }

  // --- follower / candidate side -----------------------------------------
  Term campaign_term(Term current) const override;
  Duration min_election_timeout() const override { return options_.base_time; }
  ConfClock vote_request_clock() const override { return current_.conf_clock; }
  bool approve_candidate(const rpc::RequestVote& request) const override;
  bool on_config_received(const rpc::Configuration& config) override;
  rpc::Configuration current_config() const override { return current_; }
  void restore(const rpc::Configuration& config) override;

  // --- leader side (PPF) ---------------------------------------------------
  void on_become_leader(const std::vector<ServerId>& others, Term term) override;
  /// Membership change: adopts the new voter count n (Eq. 1's ladder and
  /// Eq. 2's jumps recompute) and, while leading, resets the patrol pool to
  /// the new voter set — the next patrol round re-deals every priority under
  /// a freshly minted confClock. Lemma 3 across a reconfig: the re-deal and
  /// any racing patrol rearrangement serialize on this leader's single
  /// round_clock_, monotone adoption discards stale in-flight assignments,
  /// and a removed server's standing assignment keeps a clock that is never
  /// reused.
  void on_membership_changed(const std::vector<ServerId>& voter_others,
                             std::size_t n_voters) override;
  void on_follower_status(ServerId from, const rpc::ConfigStatus& status) override;
  void on_follower_backlog(ServerId follower, LogIndex backlog, std::size_t inflight) override;
  void begin_heartbeat_round() override;
  std::optional<rpc::Configuration> config_for(ServerId dest) override;
  std::optional<rpc::Configuration> assignment_for(ServerId dest) override;

  // --- introspection (tests, invariant checkers) --------------------------
  const EscapeOptions& options() const { return options_; }
  /// Leader-side view of the current assignment by follower id (empty on a
  /// server that never led).
  std::map<ServerId, rpc::Configuration> assignments() const;
  /// The configuration clock of the most recent patrol round issued by this
  /// server while leading.
  ConfClock issued_clock() const { return round_clock_; }

 protected:
  Duration sample_election_timeout(Rng& rng) override;

 private:
  void run_patrol();

  const ServerId self_;
  std::size_t n_;  ///< current voter count (updated by on_membership_changed)
  const EscapeOptions options_;

  /// Configuration currently in force on this server.
  rpc::Configuration current_;

  // --- leader-only state ---------------------------------------------------
  /// One patrolled follower: what it last reported and what it was dealt.
  struct Follower {
    ServerId id = kNoServer;
    LogIndex log_index = 0;        ///< last reported log responsiveness
    ConfClock adopted_clock = -1;  ///< clock the follower reports adopted
    LogIndex backlog = 0;          ///< entries the leader still owes (pipeline)
    std::size_t inflight = 0;      ///< optimistic batches in flight to it
    /// Its current deal, if any.
    std::optional<rpc::Configuration> assignment;

    /// Default probe, no deal.
    static Follower fresh(ServerId id) {
      Follower f;
      f.id = id;
      return f;
    }
  };
  /// A follower's patrol rank, computed once per round (see run_patrol).
  struct RankKey {
    bool lagging = false;
    LogIndex log_index = 0;  ///< laggards only; 0 for healthy followers
    LogIndex backlog = 0;    ///< laggards only; 0 for healthy followers
    Priority previous = 0;   ///< standing priority (0 = none)
    ServerId id = kNoServer;
    std::size_t slot = 0;  ///< index into followers_
  };
  /// Sorted by id; binary-searched by follower id.
  std::vector<Follower> followers_;
  Follower* find_follower(ServerId id);
  // Patrol scratch, reused across rounds; proposed_ is parallel to
  // followers_ (0 = not dealt).
  std::vector<RankKey> rank_;
  std::vector<Priority> proposed_;
  ConfClock round_clock_ = 0;     ///< clock of the last issued rearrangement
  ConfClock max_clock_seen_ = 0;  ///< highest clock observed anywhere
  int rounds_since_patrol_ = 0;
  bool leading_ = false;
  bool patrol_round_pending_ = false;  ///< send configs in the current round
};

/// Z-Raft (Section VI-D): ZooKeeper-style fixed-priority election grafted
/// onto Raft — ESCAPE's SCA without PPF, no configuration clock. Provided as
/// a named factory to make bench/ test call sites self-describing.
inline std::unique_ptr<raft::ElectionPolicy> make_zraft_policy(ServerId self,
                                                               std::size_t cluster_size,
                                                               EscapeOptions options = {}) {
  options.enable_ppf = false;
  options.conf_clock_vote_rule = false;
  return std::make_unique<EscapePolicy>(self, cluster_size, options);
}

}  // namespace escape::core
