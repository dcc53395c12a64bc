#include "core/escape_policy.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace escape::core {
namespace {

/// Ranking hysteresis: a follower counts as *lagging* (and is demoted in the
/// patrol ranking) only when its reported log index trails the most
/// responsive follower's by more than this many entries. Followers within
/// the threshold keep their previous relative order, so ordinary replication
/// jitter (in-flight entries, one omitted heartbeat) does not trigger
/// spurious rearrangements — the configuration clock only advances on
/// material responsiveness changes, which keeps vote-time clock checks
/// meaningful under message loss.
constexpr LogIndex kLagThreshold = 10;

/// Pipeline-backlog hysteresis for the patrol ranking (entries). A follower
/// whose replication backlog (entries the leader still owes it) exceeds the
/// *smallest* backlog among followers by more than this is demoted like a
/// log-index laggard, so the freshest replica under load keeps the shortest
/// timeout. The comparison is relative, not absolute: an open-loop write
/// storm puts every follower equally behind, and a uniform backlog must not
/// demote anyone (assignments — and hence the confClock — stay stable under
/// symmetric load).
constexpr LogIndex kBacklogLagThreshold = 64;

}  // namespace

EscapePolicy::EscapePolicy(ServerId self, std::size_t cluster_size, EscapeOptions options)
    : self_(self), n_(cluster_size), options_(options) {
  assert(cluster_size >= 1);
  current_ = initial_configuration(options_, n_, self_);
}

Term EscapePolicy::campaign_term(Term current) const {
  // Eq. 2: T <- T + P. Priority is always >= 1 by construction, but guard
  // against a zeroed restore so terms keep advancing.
  const Priority p = std::max<Priority>(1, current_.priority);
  return current + p;
}

bool EscapePolicy::approve_candidate(const rpc::RequestVote& request) const {
  if (!options_.conf_clock_vote_rule) return true;
  // "Servers never vote for candidates whose configuration clock is stale":
  // the candidate's clock must be at least the voter's (Section IV-B).
  return request.conf_clock >= current_.conf_clock;
}

bool EscapePolicy::on_config_received(const rpc::Configuration& config) {
  // Only strictly fresher assignments are adopted; replays and reordered
  // heartbeats cannot roll the configuration back (Lemma 4 relies on clock
  // monotonicity).
  if (config.conf_clock <= current_.conf_clock) return false;
  current_ = config;
  if (config.conf_clock > max_clock_seen_) max_clock_seen_ = config.conf_clock;
  leading_ = false;  // receiving a config means someone else leads
  return true;
}

void EscapePolicy::restore(const rpc::Configuration& config) {
  // A zeroed persisted config (fresh disk) keeps the SCA initial assignment.
  if (config.priority != 0 || config.conf_clock != 0 || config.timer_period != 0) {
    current_ = config;
    max_clock_seen_ = std::max(max_clock_seen_, config.conf_clock);
  }
}

Duration EscapePolicy::sample_election_timeout(Rng&) {
  // Deterministic: the adopted configuration *is* the timeout (Eq. 1).
  return current_.timer_period > 0 ? current_.timer_period
                                   : election_period(options_, n_, current_.priority);
}

void EscapePolicy::on_become_leader(const std::vector<ServerId>& others, Term term) {
  leading_ = true;
  followers_ = others;
  std::sort(followers_.begin(), followers_.end());
  probes_.clear();
  assignments_.clear();
  rounds_since_patrol_ = 0;
  patrol_round_pending_ = false;
  // Continue the clock from the freshest value this server has ever seen so
  // followers holding configurations from a previous leadership still adopt
  // ours, and floor it into this term's stride so generations minted by
  // distinct leaderships can never collide — even when a predecessor stamped
  // a clock and crashed before any follower learned of it (Lemma 3 must
  // survive that window; see kConfClockStride).
  round_clock_ = std::max({round_clock_, max_clock_seen_, term * kConfClockStride});
  for (ServerId f : followers_) probes_[f];  // default probe entries
}

void EscapePolicy::on_membership_changed(const std::vector<ServerId>& voter_others,
                                         std::size_t n_voters) {
  // Eq. 1 and Eq. 2 are parameterized by n; followers track it too so their
  // fallback period (no adopted assignment yet) matches the new ladder. A
  // learner bootstrapping with zero known voters keeps n >= 1.
  n_ = std::max<std::size_t>(1, n_voters);
  if (!leading_) return;
  std::vector<ServerId> next = voter_others;
  std::sort(next.begin(), next.end());
  if (next == followers_) return;
  followers_ = std::move(next);
  for (auto it = probes_.begin(); it != probes_.end();) {
    if (!std::binary_search(followers_.begin(), followers_.end(), it->first)) {
      it = probes_.erase(it);
    } else {
      ++it;
    }
  }
  for (ServerId f : followers_) probes_[f];  // default probe entries for newcomers
  // Force a full re-deal at the next heartbeat round: with assignments_
  // empty the patrol sees changed=true and mints a fresh confClock, so the
  // whole pool {2..n} is re-issued over the new voter set in one generation
  // — a reconfig can never leave two servers sharing a (P, k) pair from
  // different-n ladders (Lemma 3 across reconfigs).
  assignments_.clear();
  rounds_since_patrol_ = options_.patrol_every;  // patrol immediately
  patrol_round_pending_ = false;
}

void EscapePolicy::on_follower_status(ServerId from, const rpc::ConfigStatus& status) {
  if (!leading_) return;
  auto it = probes_.find(from);
  if (it == probes_.end()) return;
  it->second.log_index = status.log_index;
  it->second.adopted_clock = status.conf_clock;
  if (status.conf_clock > max_clock_seen_) max_clock_seen_ = status.conf_clock;
}

void EscapePolicy::on_follower_backlog(ServerId follower, LogIndex backlog,
                                       std::size_t inflight) {
  if (!leading_) return;
  auto it = probes_.find(follower);
  if (it == probes_.end()) return;
  it->second.backlog = backlog;
  it->second.inflight = inflight;
}

void EscapePolicy::begin_heartbeat_round() {
  if (!leading_ || !options_.enable_ppf || followers_.empty()) {
    patrol_round_pending_ = false;
    return;
  }
  ++rounds_since_patrol_;
  if (rounds_since_patrol_ < options_.patrol_every) {
    patrol_round_pending_ = false;
    return;
  }
  rounds_since_patrol_ = 0;
  run_patrol();
  patrol_round_pending_ = true;
}

void EscapePolicy::run_patrol() {
  // Rank followers by log responsiveness (last log index reported in a
  // heartbeat reply). Figure 5a: up-to-date servers take the higher-priority
  // configurations; Figure 5b: a crashed follower stops reporting, its known
  // index freezes below the advancing cluster, and its high priority is
  // re-issued to a responsive server while its own copy goes stale.
  //
  // Hysteresis: followers within kLagThreshold of the best reported index
  // are "healthy" and keep their previous relative order; only material
  // laggards are demoted. This keeps assignments (and hence the confClock)
  // stable under replication jitter and message loss.
  LogIndex best = 0;
  for (ServerId f : followers_) best = std::max(best, probes_.at(f).log_index);
  // Pipeline feedback (see kBacklogLagThreshold): demotion
  // keys off the backlog *relative to the least-owed follower*, so a
  // symmetric write storm — every window equally full — demotes nobody.
  LogIndex min_backlog = 0;
  bool any_backlog = false;
  for (ServerId f : followers_) {
    const LogIndex b = probes_.at(f).backlog;
    if (!any_backlog || b < min_backlog) min_backlog = b;
    any_backlog = true;
  }
  const auto lagging = [&](ServerId f) {
    const FollowerProbe& probe = probes_.at(f);
    return best - probe.log_index > kLagThreshold ||
           probe.backlog - min_backlog > kBacklogLagThreshold;
  };
  const auto previous_priority = [&](ServerId f) -> Priority {
    const auto it = assignments_.find(f);
    return it == assignments_.end() ? 0 : it->second.priority;
  };
  std::vector<ServerId> order = followers_;
  std::sort(order.begin(), order.end(), [&](ServerId a, ServerId b) {
    const bool la = lagging(a);
    const bool lb = lagging(b);
    if (la != lb) return !la;  // healthy followers outrank laggards
    if (la) {                  // among laggards, least-behind first
      const auto ia = probes_.at(a).log_index;
      const auto ib = probes_.at(b).log_index;
      if (ia != ib) return ia > ib;
      const auto ba = probes_.at(a).backlog;  // then least-owed first
      const auto bb = probes_.at(b).backlog;
      if (ba != bb) return ba < bb;
    }
    const auto pa = previous_priority(a);
    const auto pb = previous_priority(b);
    if (pa != pb) return pa > pb;  // stable: keep the standing order
    return a > b;                  // deterministic tiebreak (SCA id seed)
  });

  // Prospective distribution of the pool {n, n-1, ..., 2}; the leader parks
  // itself at the bottom priority (1) with its timer effectively "NA/inf"
  // while leading. The pool never reaches 1: a leader removing itself from
  // the voter set patrols n followers, and dealing the last one P=1 would
  // duplicate the leader's own priority at the same clock — the exact
  // Lemma 3 violation the clock rules out. The lowest-ranked voter keeps
  // its standing (older-clock) assignment until the next leadership deals
  // a full pool.
  std::map<ServerId, Priority> proposed;
  Priority p = static_cast<Priority>(n_);
  for (ServerId f : order) {
    if (p < 2) break;
    proposed[f] = p--;
  }

  // The configuration clock stamps *rearrangement generations*: it advances
  // only when the assignment actually changes (or when a follower reports a
  // clock ahead of ours, e.g. inherited from a previous leadership that we
  // missed). Re-broadcasting an unchanged assignment keeps the same clock,
  // so followers that were omitted by a lossy round converge to it without
  // penalizing everyone else's freshness.
  bool changed = assignments_.empty() || max_clock_seen_ > round_clock_;
  if (!changed) {
    for (const auto& [f, prio] : proposed) {
      const auto it = assignments_.find(f);
      if (it == assignments_.end() || it->second.priority != prio) {
        changed = true;
        break;
      }
    }
  }
  if (!changed) return;

  round_clock_ = std::max(round_clock_, max_clock_seen_) + 1;
  for (const auto& [f, prio] : proposed) {
    rpc::Configuration c;
    c.priority = prio;
    c.timer_period = election_period(options_, n_, c.priority);
    c.conf_clock = round_clock_;
    assignments_[f] = c;
  }
  current_.priority = 1;
  current_.timer_period = election_period(options_, n_, 1);
  current_.conf_clock = round_clock_;
  max_clock_seen_ = round_clock_;
}

std::optional<rpc::Configuration> EscapePolicy::config_for(ServerId dest) {
  if (!leading_ || !options_.enable_ppf || !patrol_round_pending_) return std::nullopt;
  const auto it = assignments_.find(dest);
  if (it == assignments_.end()) return std::nullopt;
  return it->second;
}

std::optional<rpc::Configuration> EscapePolicy::assignment_for(ServerId dest) {
  if (!leading_ || !options_.enable_ppf) return std::nullopt;
  const auto it = assignments_.find(dest);
  if (it == assignments_.end()) return std::nullopt;
  return it->second;
}

}  // namespace escape::core
