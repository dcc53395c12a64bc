// Safety invariant checkers.
//
// Continuously (via event listeners) and on demand (deep_check) verifies the
// properties the paper argues in Section V:
//   * Election Safety    — at most one leader per term (Theorem 2 substrate)
//   * Log Matching       — equal (index, term) implies equal prefixes
//   * Leader Completeness— committed entries appear in every later leader log
//     (or below its snapshot boundary — compacted entries are committed by
//     construction)
//   * State-Machine Safety — applied sequences are mutually consistent,
//     compared by log index so snapshot-restored replicas (whose applied
//     streams begin past the snapshot) still participate
//   * Configuration uniqueness (Lemma 3) — servers sharing a confClock hold
//     distinct priorities
//   * Snapshot clock monotonicity — a server's adopted confClock is never
//     behind the configuration its own snapshot carries (a restored node
//     cannot regress the generation its state embodies), and a snapshot
//     never claims an index past the server's applied point
//   * Read linearizability — every granted fast-path read observes a state
//     no older than the commit point at issue time: its read index must
//     cover the probe ledger's commit floor (the highest commit index any
//     alive server held when the read was issued — what a deposed leader
//     serving from a stale lease would fall behind), and the serving
//     replica must have applied through that index before the grant fired
// Violations are recorded as human-readable strings; tests assert ok().
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/sim_cluster.h"

namespace escape::sim {

class InvariantChecker {
 public:
  /// Attaches listeners to `cluster` (which must outlive the checker).
  /// When `check_configs` is set, Lemma 3 uniqueness is verified on every
  /// configuration adoption and leadership change.
  explicit InvariantChecker(SimCluster& cluster, bool check_configs = true);

  /// Expensive full-state checks: pairwise log matching, applied-prefix
  /// consistency, and leader completeness. Call at quiescent points.
  void deep_check();

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Leaders observed per term (useful to assert single-campaign claims).
  const std::map<Term, ServerId>& leaders_by_term() const { return leaders_by_term_; }

  /// Fast-path reads audited against the probe ledger (grants whose probe
  /// was issued through SimCluster::submit_read). Lets tests assert the
  /// read-linearizability invariant actually engaged.
  std::size_t reads_checked() const { return reads_checked_; }

 private:
  void on_event(const raft::NodeEvent& event);
  void on_read(ServerId id, const raft::ReadGrant& grant);
  void check_config_uniqueness();
  void add_violation(std::string v);

  SimCluster& cluster_;
  bool check_configs_;
  /// check_config_uniqueness's buffer, reused across calls: one entry per
  /// live ESCAPE server (`member` indexes cluster_.members()).
  struct Held {
    ConfClock clock;
    Priority priority;
    std::size_t member;
    bool operator<(const Held& o) const {
      return std::tie(clock, priority, member) < std::tie(o.clock, o.priority, o.member);
    }
  };
  std::vector<Held> held_;
  std::map<Term, ServerId> leaders_by_term_;
  std::vector<std::string> violations_;
  std::size_t reads_checked_ = 0;
};

}  // namespace escape::sim
