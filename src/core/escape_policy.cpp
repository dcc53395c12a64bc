#include "core/escape_policy.h"

#include <algorithm>
#include <stdexcept>

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
  if (cluster_size < 1) {
    throw std::invalid_argument("ESCAPE needs a cluster of at least one server");
  }
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
  std::vector<ServerId> ids = others;
  std::sort(ids.begin(), ids.end());
  followers_.clear();
  for (ServerId f : ids) followers_.push_back(Follower::fresh(f));
  rounds_since_patrol_ = 0;
  patrol_round_pending_ = false;
  // Continue the clock from the freshest value this server has ever seen so
  // followers holding configurations from a previous leadership still adopt
  // ours, and floor it into this term's stride so generations minted by
  // distinct leaderships can never collide — even when a predecessor stamped
  // a clock and crashed before any follower learned of it (Lemma 3 must
  // survive that window; see kConfClockStride).
  round_clock_ = std::max({round_clock_, max_clock_seen_, term * kConfClockStride});
}

void EscapePolicy::on_membership_changed(const std::vector<ServerId>& voter_others,
                                         std::size_t n_voters) {
  // Eq. 1 and Eq. 2 are parameterized by n; followers track it too so their
  // fallback period (no adopted assignment yet) matches the new ladder. A
  // learner bootstrapping with zero known voters keeps n >= 1.
  n_ = std::max<std::size_t>(1, n_voters);
  if (!leading_) return;
  std::vector<ServerId> ids = voter_others;
  std::sort(ids.begin(), ids.end());
  if (std::equal(ids.begin(), ids.end(), followers_.begin(), followers_.end(),
                 [](ServerId id, const Follower& f) { return id == f.id; })) {
    return;
  }
  // Continuing followers keep their probes; newcomers start from defaults.
  // Every deal is dropped to force a full re-deal at the next heartbeat
  // round: with no assignment standing the patrol sees changed=true and
  // mints a fresh confClock, so the whole pool {2..n} is re-issued over the
  // new voter set in one generation — a reconfig can never leave two
  // servers sharing a (P, k) pair from different-n ladders (Lemma 3 across
  // reconfigs).
  std::vector<Follower> next;
  next.reserve(ids.size());
  auto kept = followers_.begin();
  for (ServerId id : ids) {
    while (kept != followers_.end() && kept->id < id) ++kept;
    next.push_back(kept != followers_.end() && kept->id == id ? *kept : Follower::fresh(id));
    next.back().assignment.reset();
  }
  followers_ = std::move(next);
  rounds_since_patrol_ = options_.patrol_every;  // patrol immediately
  patrol_round_pending_ = false;
}

EscapePolicy::Follower* EscapePolicy::find_follower(ServerId id) {
  const auto it = std::lower_bound(followers_.begin(), followers_.end(), id,
                                   [](const Follower& f, ServerId s) { return f.id < s; });
  return it != followers_.end() && it->id == id ? &*it : nullptr;
}

void EscapePolicy::on_follower_status(ServerId from, const rpc::ConfigStatus& status) {
  if (!leading_) return;
  Follower* f = find_follower(from);
  if (f == nullptr) return;
  f->log_index = status.log_index;
  f->adopted_clock = status.conf_clock;
  if (status.conf_clock > max_clock_seen_) max_clock_seen_ = status.conf_clock;
}

void EscapePolicy::on_follower_backlog(ServerId follower, LogIndex backlog,
                                       std::size_t inflight) {
  if (!leading_) return;
  Follower* f = find_follower(follower);
  if (f == nullptr) return;
  f->backlog = backlog;
  f->inflight = inflight;
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
  for (const Follower& f : followers_) best = std::max(best, f.log_index);
  // Pipeline feedback (see kBacklogLagThreshold): demotion
  // keys off the backlog *relative to the least-owed follower*, so a
  // symmetric write storm — every window equally full — demotes nobody.
  LogIndex min_backlog = 0;
  bool any_backlog = false;
  for (const Follower& f : followers_) {
    if (!any_backlog || f.backlog < min_backlog) min_backlog = f.backlog;
    any_backlog = true;
  }
  // Each follower's rank is computed once. Healthy followers outrank
  // laggards; among laggards the least-behind, then the least-owed, go
  // first (a healthy follower's key zeroes both, so they never separate
  // healthy ones); then the standing order holds; the id breaks the last
  // tie (SCA id seed). Ids are unique, so the order is total.
  rank_.clear();
  for (std::size_t i = 0; i < followers_.size(); ++i) {
    const Follower& f = followers_[i];
    RankKey k;
    k.lagging =
        best - f.log_index > kLagThreshold || f.backlog - min_backlog > kBacklogLagThreshold;
    if (k.lagging) {
      k.log_index = f.log_index;
      k.backlog = f.backlog;
    }
    k.previous = f.assignment ? f.assignment->priority : 0;
    k.id = f.id;
    k.slot = i;
    rank_.push_back(k);
  }
  std::sort(rank_.begin(), rank_.end(), [](const RankKey& a, const RankKey& b) {
    if (a.lagging != b.lagging) return !a.lagging;
    if (a.log_index != b.log_index) return a.log_index > b.log_index;
    if (a.backlog != b.backlog) return a.backlog < b.backlog;
    if (a.previous != b.previous) return a.previous > b.previous;
    return a.id > b.id;
  });

  // Prospective distribution of the pool {n, n-1, ..., 2}; the leader parks
  // itself at the bottom priority (1) with its timer effectively "NA/inf"
  // while leading. The pool never reaches 1: a leader removing itself from
  // the voter set patrols n followers, and dealing the last one P=1 would
  // duplicate the leader's own priority at the same clock — the exact
  // Lemma 3 violation the clock rules out. The lowest-ranked voter keeps
  // its standing (older-clock) assignment until the next leadership deals
  // a full pool.
  proposed_.assign(followers_.size(), 0);
  Priority p = static_cast<Priority>(n_);
  for (const RankKey& k : rank_) {
    if (p < 2) break;
    proposed_[k.slot] = p--;
  }

  // The configuration clock stamps *rearrangement generations*: it advances
  // only when the assignment actually changes (or when a follower reports a
  // clock ahead of ours, e.g. inherited from a previous leadership that we
  // missed). Re-broadcasting an unchanged assignment keeps the same clock,
  // so followers that were omitted by a lossy round converge to it without
  // penalizing everyone else's freshness.
  bool changed = max_clock_seen_ > round_clock_ ||
                 std::none_of(followers_.begin(), followers_.end(),
                              [](const Follower& f) { return f.assignment.has_value(); });
  for (std::size_t i = 0; !changed && i < followers_.size(); ++i) {
    const auto& standing = followers_[i].assignment;
    changed = proposed_[i] != 0 && (!standing || standing->priority != proposed_[i]);
  }
  if (!changed) return;

  round_clock_ = std::max(round_clock_, max_clock_seen_) + 1;
  for (std::size_t i = 0; i < followers_.size(); ++i) {
    if (proposed_[i] == 0) continue;
    rpc::Configuration c;
    c.priority = proposed_[i];
    c.timer_period = election_period(options_, n_, c.priority);
    c.conf_clock = round_clock_;
    followers_[i].assignment = c;
  }
  current_.priority = 1;
  current_.timer_period = election_period(options_, n_, 1);
  current_.conf_clock = round_clock_;
  max_clock_seen_ = round_clock_;
}

std::optional<rpc::Configuration> EscapePolicy::config_for(ServerId dest) {
  if (!patrol_round_pending_) return std::nullopt;
  return assignment_for(dest);
}

std::optional<rpc::Configuration> EscapePolicy::assignment_for(ServerId dest) {
  if (!leading_ || !options_.enable_ppf) return std::nullopt;
  const Follower* f = find_follower(dest);
  if (f == nullptr) return std::nullopt;
  return f->assignment;
}

std::map<ServerId, rpc::Configuration> EscapePolicy::assignments() const {
  std::map<ServerId, rpc::Configuration> out;
  for (const Follower& f : followers_) {
    if (f.assignment) out.emplace(f.id, *f.assignment);
  }
  return out;
}

}  // namespace escape::core
