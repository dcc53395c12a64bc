#include "raft/raft_node.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.h"

namespace escape::raft {
namespace {

/// Per-entry framing estimate charged against max_bytes_per_msg on top of
/// the command payload (term + index + length prefix on the wire).
constexpr std::size_t kEntryFramingBytes = 24;

/// Heartbeat rounds between InstallSnapshot retries to a follower that has
/// not replied (e.g. it is down): the snapshot is the full state payload,
/// so re-shipping it on *every* round while a peer is dark is pure waste.
/// Any reply from the peer clears the throttle immediately. The retry period
/// (rounds x heartbeat_interval) stays below the minimum election timeout so
/// a recovering follower is caught up before its timer fires.
constexpr std::uint64_t kSnapshotRetryRounds = 2;

}  // namespace

namespace {

rpc::Membership membership_from_voters(std::vector<ServerId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  rpc::Membership m;
  m.voters = std::move(members);
  return m;
}

}  // namespace

RaftNode::RaftNode(ServerId id, std::vector<ServerId> members,
                   std::unique_ptr<ElectionPolicy> policy, Rng rng, NodeOptions options,
                   Bootstrap boot)
    : RaftNode(id, membership_from_voters(std::move(members)), std::move(policy), rng,
               options, std::move(boot)) {}

RaftNode::RaftNode(ServerId id, rpc::Membership base, std::unique_ptr<ElectionPolicy> policy,
                   Rng rng, NodeOptions options, Bootstrap boot)
    : id_(id),
      base_membership_(std::move(base)),
      policy_(std::move(policy)),
      rng_(rng),
      options_(options),
      boot_hard_state_(std::move(boot.hard_state)),
      can_compact_(boot.can_compact) {
  if (id_ == kNoServer) throw std::invalid_argument("server id 0 is reserved");
  if (!policy_) throw std::invalid_argument("null election policy");
  if (options_.lease_ratio > 0 && options_.lease_ratio >= options_.vote_guard_ratio) {
    // The whole lease argument is lease < guard: a voter that acked the
    // round refuses rivals for guard x min_timeout after contact, so the
    // lease must end first. Refuse the unsound configuration loudly.
    throw std::invalid_argument("lease_ratio must be < vote_guard_ratio");
  }
  // The operator-provided seed must name this server (as a voter, or — for
  // a runtime join — as a lone learner). Durable state may later say
  // otherwise (a removed server restarting), which is legal.
  if (!base_membership_.contains(id_)) {
    throw std::invalid_argument("member list must include self");
  }
  if (boot.snapshot) {
    // The snapshot is the log's new origin: commit/applied resume at its
    // boundary (the driver restores the state machine from the same
    // snapshot).
    snapshot_boot_config_ = boot.snapshot->config;
    if (!boot.snapshot->membership.empty()) {
      base_membership_ = boot.snapshot->membership;
    }
    snapshot_ = std::make_shared<const Snapshot>(std::move(*boot.snapshot));
    log_.reset_to(snapshot_->last_included_index, snapshot_->last_included_term);
    commit_index_ = snapshot_->last_included_index;
    last_applied_ = snapshot_->last_included_index;
  }
  for (auto& e : boot.log) {
    if (e.index <= log_.base()) continue;  // absorbed by the snapshot
    if (e.index != log_.last_index() + 1) {
      // The WAL was compacted past our snapshot view (the snapshot file is
      // missing or was rejected as corrupt): the prefix below this entry is
      // gone and nothing stands in for it. Booting anyway would silently
      // lose committed state; fail with the actual diagnosis instead of the
      // contiguity assertion deep inside Log::append.
      throw std::runtime_error(
          "recovered WAL resumes at index " + std::to_string(e.index) +
          " but the log ends at " + std::to_string(log_.last_index()) +
          ": no snapshot covers the compacted prefix (snapshot store missing or corrupt)");
    }
    log_.append(std::move(e));
  }
  // Latest-config-in-log across a restart: the snapshot membership seeds the
  // base, conf entries in the recovered suffix override it.
  rescan_membership(/*now=*/0);
}

// --- membership machinery ----------------------------------------------------

std::vector<ServerId> RaftNode::voter_others() const {
  std::vector<ServerId> ids = voter_union(membership_);
  ids.erase(std::remove(ids.begin(), ids.end(), id_), ids.end());
  return ids;
}

std::vector<ServerId> RaftNode::patrol_others() const {
  std::vector<ServerId> ids = membership_.voters;
  ids.erase(std::remove(ids.begin(), ids.end(), id_), ids.end());
  return ids;
}

void RaftNode::set_membership(rpc::Membership m, LogIndex at, TimePoint now) {
  const bool changed = !(m == membership_);
  membership_ = std::move(m);
  conf_index_ = at;
  others_ = all_members(membership_);
  others_.erase(std::remove(others_.begin(), others_.end(), id_), others_.end());
  if (role_ == Role::kLeader) {
    // Newcomers start probing from the log tail (their first NACK or
    // snapshot walks the cursor back); departed peers drop out of
    // replication immediately. Both lists are sorted by id.
    std::vector<Peer> next;
    next.reserve(others_.size());
    auto kept = peers_.begin();
    for (ServerId peer : others_) {
      while (kept != peers_.end() && kept->id < peer) ++kept;
      if (kept != peers_.end() && kept->id == peer) {
        next.push_back(std::move(*kept));
      } else {
        next.push_back({peer, Progress{log_.last_index() + 1, 0, 0, false}, 0, std::nullopt});
      }
    }
    peers_ = std::move(next);
  }
  // ESCAPE re-deal: Eq. 1's ladder depends on n, so the policy must learn
  // the new voter count (followers too — their fallback period recomputes);
  // a leading policy additionally re-deals the {2..n} pool over the new
  // voter set under a freshly minted confClock (Lemma 3: reconfig and
  // patrol serialize on this leader's single clock).
  policy_->on_membership_changed(patrol_others(), membership_.voters.size());
  if (changed) {
    ++counters_.membership_changes;
    if (started_) {
      emit({.kind = NodeEvent::Kind::kMembershipChanged,
            .term = current_term_,
            .index = at,
            .at = now});
      LOG_DEBUG(server_name(id_) << " adopts membership " << rpc::to_string(membership_)
                                 << " @" << at);
    }
  }
  // A promoted learner starts electing; a demoted or removed voter stops.
  if (started_ && role_ != Role::kLeader) {
    if (!membership_.is_voter(id_)) {
      election_deadline_ = kNever;
    } else if (election_deadline_ == kNever) {
      arm_election_timer(now);
    }
  }
}

void RaftNode::rescan_membership(TimePoint now) {
  rpc::Membership m = base_membership_;
  LogIndex at = 0;
  for (LogIndex i = log_.first_index(); i <= log_.last_index(); ++i) {
    const auto* e = log_.entry_at(i);
    if (e != nullptr && e->kind == rpc::EntryKind::kConfChange) {
      m = decode_conf_entry(e->command);
      at = i;
    }
  }
  set_membership(std::move(m), at, now);
}

rpc::Membership RaftNode::membership_at(LogIndex upto) const {
  rpc::Membership m = base_membership_;
  const LogIndex last = std::min(upto, log_.last_index());
  for (LogIndex i = log_.first_index(); i <= last; ++i) {
    const auto* e = log_.entry_at(i);
    if (e != nullptr && e->kind == rpc::EntryKind::kConfChange) {
      m = decode_conf_entry(e->command);
    }
  }
  return m;
}

bool RaftNode::votes_win() const {
  if (membership_.voters.empty()) return false;
  const auto majority = [&](const std::vector<ServerId>& set) {
    std::size_t got = 0;
    for (ServerId s : set) {
      if (votes_.count(s) != 0) ++got;
    }
    return got >= set.size() / 2 + 1;
  };
  if (!majority(membership_.voters)) return false;
  return !membership_.joint() || majority(membership_.old_voters);
}

RaftNode::ConfChangeResult RaftNode::propose_conf_change(const ConfChange& change,
                                                         TimePoint now) {
  require_started();
  assert_inputs_allowed();
  ConfChangeResult out;
  if (role_ != Role::kLeader) {
    out.status = rpc::ConfChangeStatus::kNotLeader;
    return out;
  }
  if (membership_.joint() || conf_index_ > commit_index_) {
    // One change at a time (dissertation §4.3): the previous conf entry
    // must commit — and a joint config must complete its Cnew handoff —
    // before the next change may start.
    out.status = rpc::ConfChangeStatus::kBusy;
    return out;
  }
  auto target = apply_conf_change(membership_, change);
  if (!target) {
    out.status = rpc::ConfChangeStatus::kInvalid;
    return out;
  }
  if (change.op == rpc::ConfChangeOp::kPromote) {
    const Peer* learner = find_peer(change.server);
    if (learner == nullptr || learner->progress.match < commit_index_) {
      out.status = rpc::ConfChangeStatus::kNotCaughtUp;
      return out;
    }
  }
  rpc::LogEntry entry;
  entry.term = current_term_;
  entry.index = log_.last_index() + 1;
  entry.kind = rpc::EntryKind::kConfChange;
  entry.command = encode_conf_entry(*target);
  out.index = entry.index;
  out.status = rpc::ConfChangeStatus::kOk;
  append_entry(std::move(entry), now);  // adopts the membership on append
  for (ServerId peer : others_) maybe_send_appends(peer);
  maybe_advance_commit(now);  // single-node clusters commit immediately
  sync_soft_state();
  LOG_DEBUG(server_name(id_) << " proposed conf change op=" << static_cast<int>(change.op)
                             << " server=" << server_name(change.server) << " @" << out.index);
  return out;
}

void RaftNode::maybe_finish_conf_change(TimePoint now) {
  if (role_ != Role::kLeader || conf_index_ > commit_index_) return;
  if (membership_.joint()) {
    // Cold,new is committed under both majorities: the handoff is decided.
    // Append Cnew so the old majority retires.
    rpc::LogEntry entry;
    entry.term = current_term_;
    entry.index = log_.last_index() + 1;
    entry.kind = rpc::EntryKind::kConfChange;
    entry.command = encode_conf_entry(finish_joint(membership_));
    append_entry(std::move(entry), now);
    for (ServerId peer : others_) maybe_send_appends(peer);
    maybe_advance_commit(now);
    return;
  }
  if (!membership_.is_voter(id_)) {
    // Cnew committed and it does not include this leader: step down
    // (dissertation §4.2.2). The election timer stays disarmed — a removed
    // server never campaigns — and the vote-recency guard on the remaining
    // voters contains any disruption from our stale lease window.
    LOG_DEBUG(server_name(id_) << " removed by committed conf entry; stepping down");
    become_follower(current_term_, kNoServer, now, /*reset_timer=*/true);
  }
}

void RaftNode::handle_conf_change_request(ServerId from, const rpc::ConfChangeRequest& m,
                                          TimePoint now) {
  rpc::ConfChangeReply reply;
  reply.id = m.id;
  if (role_ != Role::kLeader) {
    reply.status = rpc::ConfChangeStatus::kNotLeader;
    reply.leader_hint = leader_id_;
  } else {
    const ConfChangeResult r = propose_conf_change({m.op, m.server}, now);
    reply.status = r.status;
    reply.leader_hint = id_;
    reply.index = r.index;
  }
  send(from, reply);
}

void RaftNode::start(TimePoint now) {
  if (started_) throw std::logic_error("start() called twice");
  if (boot_hard_state_) {
    current_term_ = boot_hard_state_->current_term;
    voted_for_ = boot_hard_state_->voted_for;
    policy_->restore(boot_hard_state_->config);
    boot_hard_state_.reset();
  }
  // The snapshotted state embodies configuration generation k; restoring the
  // state but an older configuration would regress the confClock (and with
  // it the staleness vote rule). Normally the hard state is at least as
  // fresh — every adoption persists — but a lost or corrupt state file must
  // not un-adopt what the snapshot proves this server held.
  if (snapshot_boot_config_ &&
      snapshot_boot_config_->conf_clock > policy_->current_config().conf_clock) {
    policy_->restore(*snapshot_boot_config_);
  }
  started_ = true;
  if (current_term_ > 0 || log_.last_index() > 0) {
    // Restarted, not newborn: this server may have acked a heartbeat round
    // (extending some leader's lease) right before it died. Refusing votes
    // for one guard window from here restores the lease argument's quorum-
    // intersection step for its pre-crash acks — any lease it helped grant
    // expires before this refusal window does (lease_ratio < vote_guard_ratio
    // and the lease was anchored at or before the crash).
    restart_guard_until_ =
        now + static_cast<Duration>(options_.vote_guard_ratio *
                                    static_cast<double>(policy_->min_election_timeout()));
  }
  arm_election_timer(now);
  sync_soft_state();  // first batch reports the initial soft state
  LOG_DEBUG(server_name(id_) << " started t=" << current_term_ << " log=" << log_.last_index());
}

void RaftNode::step(const rpc::Envelope& envelope, TimePoint now) {
  require_started();
  assert_inputs_allowed();
  ++counters_.messages_received;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, rpc::RequestVote>) {
          handle_request_vote(m, now);
        } else if constexpr (std::is_same_v<T, rpc::RequestVoteReply>) {
          handle_request_vote_reply(m, now);
        } else if constexpr (std::is_same_v<T, rpc::AppendEntries>) {
          handle_append_entries(envelope.from, m, now);
        } else if constexpr (std::is_same_v<T, rpc::AppendEntriesReply>) {
          handle_append_entries_reply(m, now);
        } else if constexpr (std::is_same_v<T, rpc::TimeoutNow>) {
          handle_timeout_now(m, now);
        } else if constexpr (std::is_same_v<T, rpc::InstallSnapshot>) {
          handle_install_snapshot(m, now);
        } else if constexpr (std::is_same_v<T, rpc::InstallSnapshotReply>) {
          handle_install_snapshot_reply(m, now);
        } else if constexpr (std::is_same_v<T, rpc::ConfChangeRequest>) {
          handle_conf_change_request(envelope.from, m, now);
        } else if constexpr (std::is_same_v<T, rpc::ConfChangeReply>) {
          // Admin-plane reply addressed to whoever proposed the change; the
          // serving layer consumes these, the consensus core ignores them.
        } else {
          // Client traffic is handled by the application layer (kv::Server);
          // the consensus core only sees consensus RPCs.
          LOG_WARN(server_name(id_) << " dropping non-consensus message");
        }
      },
      envelope.message);
  sync_soft_state();
}

void RaftNode::tick(TimePoint now) {
  require_started();
  assert_inputs_allowed();
  if (role_ != Role::kLeader && election_deadline_ != kNever && now >= election_deadline_) {
    start_campaign(now);
  }
  if (role_ == Role::kLeader && heartbeat_deadline_ != kNever && now >= heartbeat_deadline_) {
    broadcast_heartbeat_round(now);
  }
  sync_soft_state();
}

std::optional<LogIndex> RaftNode::submit(std::vector<std::uint8_t> command, TimePoint now) {
  require_started();
  assert_inputs_allowed();
  if (role_ != Role::kLeader) return std::nullopt;
  rpc::LogEntry entry;
  entry.term = current_term_;
  entry.index = log_.last_index() + 1;
  entry.command = std::move(command);
  const LogIndex index = entry.index;
  append_entry(std::move(entry), now);
  // Replicate eagerly while each peer's pipelining window has room;
  // heartbeats would pick it up anyway, but latency matters to clients.
  // Once a window fills, further submissions accumulate and leave as
  // multi-entry batches when acks (or the next round) reopen it — that
  // backpressure is where batching coalescing actually comes from.
  for (ServerId peer : others_) maybe_send_appends(peer);
  maybe_advance_commit(now);  // single-node clusters commit immediately
  sync_soft_state();
  return index;
}

bool RaftNode::transfer_leadership(ServerId target, TimePoint now) {
  assert_inputs_allowed();
  if (role_ != Role::kLeader || target == id_) return false;
  const Peer* p = find_peer(target);
  if (p == nullptr) return false;
  if (p->progress.match < log_.last_index()) return false;  // target not caught up
  // The target's transfer campaign bypasses the vote-recency guard, so the
  // usual "no rival before the lease expires" argument no longer covers this
  // leadership — from this instant until step-down, and not just until the
  // next quorum-acked round re-extends the lease (an in-flight ack arriving
  // after a one-shot revocation would re-arm it while the rival can already
  // be campaigning). The pending ReadIndex batch stays safe: it needs quorum
  // acks in the current term, which the transfer itself will invalidate.
  transfer_pending_ = true;
  revoke_lease();
  (void)now;
  rpc::TimeoutNow m;
  m.term = current_term_;
  m.leader_id = id_;
  send(target, m);
  LOG_DEBUG(server_name(id_) << " transfers leadership to " << server_name(target));
  return true;
}

// --- read fast path ----------------------------------------------------------

void RaftNode::append_noop(TimePoint now) {
  rpc::LogEntry noop;
  noop.term = current_term_;
  noop.index = log_.last_index() + 1;
  append_entry(std::move(noop), now);
}

bool RaftNode::lease_valid(TimePoint now) const {
  return role_ == Role::kLeader && !transfer_pending_ && options_.lease_ratio > 0 &&
         lease_until_ > 0 && now < lease_until_ &&
         policy_->current_config().conf_clock == lease_clock_;
}

std::optional<ReadId> RaftNode::submit_read(TimePoint now) {
  require_started();
  assert_inputs_allowed();
  if (role_ != Role::kLeader) return std::nullopt;
  const ReadId id = ++next_read_id_;
  // A fresh leader's commit index can trail what its predecessor committed
  // (it only learns the true frontier by committing in its own term —
  // dissertation §6.4's "no-op at start of term" problem; SimCheck found the
  // stale read within a few hundred trials). Until an own-term entry is
  // committed, a read may not use commit_index_ as its index; Leader
  // Completeness bounds every possibly-committed entry by our log tail, so
  // the read waits on that instead, and an on-demand no-op barrier makes
  // sure something of this term commits even on an otherwise idle cluster.
  const bool term_committed =
      log_.last_index() == 0 || log_.term_at(commit_index_) == current_term_;
  // A sole-voter cluster is its own quorum: every read is trivially
  // current-leader-confirmed (mirrors submit()'s immediate commit), even
  // when learners are attached — they sit outside the quorum and must not
  // gate reads. The fresh-leadership barrier still applies — a restarted
  // singleton resumes with commit_index at its snapshot boundary, below
  // what it acked before.
  if (sole_voter()) {
    if (!term_committed) {
      append_noop(now);
      maybe_advance_commit(now);  // self-quorum: commits the whole log
    }
    grant_read(id, commit_index_, /*via_lease=*/false, now);
    ++counters_.read_index_reads;
    sync_soft_state();
    return id;
  }
  if (term_committed && lease_valid(now) && last_applied_ >= commit_index_) {
    grant_read(id, commit_index_, /*via_lease=*/true, now);
    ++counters_.lease_reads;
    return id;
  }
  // Backpressure: a leader that cannot reach a quorum (minority partition)
  // would otherwise queue reads without bound until it finally steps down.
  // Past the cap, reject immediately — the client retries or re-routes.
  if (pending_reads_.size() >= kMaxPendingReads) {
    ready_.read_grants.push_back({id, 0, /*ok=*/false, false});
    ++counters_.reads_rejected;
    NodeEvent ev;
    ev.kind = NodeEvent::Kind::kReadRejected;
    ev.term = current_term_;
    ev.at = now;
    ev.read_id = id;
    emit(ev);
    return id;
  }
  // ReadIndex: remember today's commit frontier; quorum acks to a round
  // *broadcast after this instant* prove no newer leader existed when the
  // read arrived, making that frontier a linearizable lower bound.
  const LogIndex read_index = term_committed ? commit_index_ : log_.last_index();
  pending_reads_.push_back({id, read_index, broadcast_round_ + 1});
  // Self-clocking batch trigger: confirm eagerly when no round is in flight
  // (sub-RTT read latency); otherwise the batch rides the round broadcast
  // when the in-flight one confirms, or the next scheduled heartbeat.
  const bool open_round_now = confirmed_round_ == broadcast_round_;
  if (!term_committed && log_.last_term() != current_term_) {
    // Barrier no-op: commits the inherited suffix so the read's release
    // condition can be met without waiting for client write traffic. When a
    // round is about to open it carries the entry; only replicate
    // explicitly when the batch is riding an in-flight round instead.
    append_noop(now);
    if (!open_round_now) {
      for (ServerId peer : others_) maybe_send_appends(peer);
    }
  }
  if (open_round_now) broadcast_heartbeat_round(now);
  sync_soft_state();
  return id;
}

void RaftNode::note_round_ack(Peer& peer, std::uint64_t round, TimePoint now) {
  // round 0: pre-read-path peer or non-round message.
  if (round == 0 || round <= peer.acked_round) return;
  peer.acked_round = round;
  // Quorum-max per voter set: the highest round a majority of the set has
  // acknowledged (self counts at broadcast_round_ when it is in the set;
  // learner echoes never gate a quorum). A joint configuration confirms a
  // round only when BOTH majorities have echoed it — the same rule its
  // commits and elections obey, so a read confirmed mid-reconfig is sound
  // against rivals elected under either configuration.
  const auto acked = [](const Peer& q) { return q.acked_round; };
  std::uint64_t quorum_round = quorum_value(membership_.voters, broadcast_round_, acked);
  if (membership_.joint()) {
    quorum_round =
        std::min(quorum_round, quorum_value(membership_.old_voters, broadcast_round_, acked));
  }
  if (quorum_round <= confirmed_round_) return;
  confirmed_round_ = quorum_round;

  // Lease extension: the confirmed round was *sent* at T_S; every acking
  // follower rearmed its election timer at receipt >= T_S and refuses votes
  // for min_election_timeout after that contact, so no rival can be elected
  // before T_S + min_election_timeout. The lease stops strictly earlier.
  const auto sent = round_sent_at_.find(quorum_round);
  if (sent != round_sent_at_.end() && options_.lease_ratio > 0 && !transfer_pending_) {
    const auto span = static_cast<Duration>(
        options_.lease_ratio * static_cast<double>(policy_->min_election_timeout()));
    const TimePoint until = sent->second + span;
    if (until > lease_until_) {
      lease_until_ = until;
      lease_clock_ = policy_->current_config().conf_clock;
    }
  }
  round_sent_at_.erase(round_sent_at_.begin(), round_sent_at_.upper_bound(quorum_round));

  release_ready_reads(now);
  // A batch formed while the round was in flight waits on a round that is
  // not broadcast yet; open it now rather than waiting out the heartbeat
  // interval (closed-loop reads self-clock at one round per RTT).
  if (!pending_reads_.empty() && pending_reads_.back().required_round > broadcast_round_) {
    broadcast_heartbeat_round(now);
  }
}

void RaftNode::release_ready_reads(TimePoint now) {
  std::size_t released = 0;
  while (released < pending_reads_.size()) {
    const PendingRead& r = pending_reads_[released];
    if (r.required_round > confirmed_round_ || last_applied_ < r.read_index) break;
    grant_read(r.id, r.read_index, /*via_lease=*/false, now);
    ++counters_.read_index_reads;
    ++released;
  }
  pending_reads_.erase(pending_reads_.begin(),
                       pending_reads_.begin() + static_cast<std::ptrdiff_t>(released));
}

void RaftNode::grant_read(ReadId id, LogIndex read_index, bool via_lease, TimePoint now) {
  if (last_applied_ < read_index) {
    throw std::logic_error("read granted at index " + std::to_string(read_index) +
                           " past the apply cursor " + std::to_string(last_applied_));
  }
  ready_.read_grants.push_back({id, read_index, /*ok=*/true, via_lease});
  NodeEvent ev;
  ev.kind = NodeEvent::Kind::kReadGranted;
  ev.term = current_term_;
  ev.index = read_index;
  ev.at = now;
  ev.read_id = id;
  ev.via_lease = via_lease;
  emit(ev);
}

void RaftNode::reject_pending_reads(TimePoint now) {
  for (const PendingRead& r : pending_reads_) {
    ready_.read_grants.push_back({r.id, r.read_index, /*ok=*/false, false});
    ++counters_.reads_rejected;
    NodeEvent ev;
    ev.kind = NodeEvent::Kind::kReadRejected;
    ev.term = current_term_;
    ev.index = r.read_index;
    ev.at = now;
    ev.read_id = r.id;
    emit(ev);
  }
  pending_reads_.clear();
}

void RaftNode::revoke_lease() {
  lease_until_ = 0;
  lease_clock_ = 0;
}

void RaftNode::reset_read_state(TimePoint now) {
  reject_pending_reads(now);
  revoke_lease();
  transfer_pending_ = false;
  for (Peer& p : peers_) p.acked_round = 0;
  round_sent_at_.clear();
  broadcast_round_ = 0;
  confirmed_round_ = 0;
}

void RaftNode::handle_timeout_now(const rpc::TimeoutNow& m, TimePoint now) {
  // Only honor a transfer from the current term's leader; stale or rogue
  // requests are ignored (the campaign itself is still governed by the
  // normal election rules, so even a honored stale one is safe).
  if (m.term < current_term_ || role_ == Role::kLeader) return;
  if (m.term > current_term_) become_follower(m.term, m.leader_id, now, /*reset_timer=*/false);
  // The sanctioning leader revoked its lease before sending; flag the
  // campaign so voters waive the recency guard (everyone heard from that
  // leader moments ago — an unflagged transfer campaign could never win).
  start_campaign(now, /*leadership_transfer=*/true);
}

std::optional<LogIndex> RaftNode::compact(LogIndex upto, std::vector<std::uint8_t> state,
                                          TimePoint now) {
  require_started();
  assert_inputs_allowed();
  if (!can_compact_) return std::nullopt;  // driver cannot persist snapshots
  upto = std::min(upto, last_applied_);    // never snapshot unapplied entries
  if (upto <= log_.base()) return std::nullopt;
  Snapshot snap;
  snap.last_included_index = upto;
  snap.last_included_term = *log_.term_at(upto);
  snap.config = policy_->current_config();
  // Membership as of the compaction boundary (conf entries above `upto`
  // survive in the log and still override this on a future rescan).
  snap.membership = membership_at(upto);
  snap.state = std::move(state);
  snapshot_ = std::make_shared<const Snapshot>(std::move(snap));
  // Snapshot first, compact second: a crash between the two replays a log
  // whose prefix the snapshot already covers (harmless), never a log whose
  // prefix is gone with no snapshot to stand in for it. LogOps execute in
  // order, so the batch encodes exactly that discipline.
  ready_.log_ops.push_back(LogOp::save_snapshot(snapshot_));
  ready_.log_ops.push_back(LogOp::compact_to(upto));
  log_.compact_to(upto);
  base_membership_ = snapshot_->membership;  // the new log base's membership
  ++counters_.snapshots_taken;
  emit({.kind = NodeEvent::Kind::kSnapshotTaken,
        .term = current_term_,
        .index = upto,
        .at = now});
  LOG_DEBUG(server_name(id_) << " compacted log through " << upto);
  return upto;
}

// --- the Ready interface -----------------------------------------------------

bool RaftNode::has_ready() const { return started_ && !ready_in_flight_ && !ready_.empty(); }

Ready RaftNode::ready() {
  if (ready_in_flight_) throw std::logic_error("ready() called again before advance()");
  if (!started_) throw std::logic_error("ready() before start()");
  Ready out = std::move(ready_);
  ready_ = Ready{};
  out.sequence = ++next_sequence_;
  if (out.soft_state) {
    reported_soft_ = *out.soft_state;
    soft_reported_once_ = true;
  }
  ready_in_flight_ = true;
  return out;
}

void RaftNode::advance(LogIndex applied) {
  if (!ready_in_flight_) throw std::logic_error("advance() without a batch in flight");
  if (applied != last_applied_) {
    // The batch handed the driver everything through last_applied_ (restore
    // boundary included); anything else means the driver dropped or invented
    // applies, which silently breaks every read-linearizability promise.
    throw std::logic_error("advance(" + std::to_string(applied) + ") but the core applied " +
                           std::to_string(last_applied_));
  }
  ready_in_flight_ = false;
}

TimePoint RaftNode::next_deadline() const {
  return std::min(election_deadline_, heartbeat_deadline_);
}

// --- role transitions --------------------------------------------------------

void RaftNode::become_follower(Term term, ServerId leader, TimePoint now, bool reset_timer) {
  if (term < current_term_) {
    throw std::logic_error("step down to term " + std::to_string(term) + " below current term " +
                           std::to_string(current_term_));
  }
  const bool stepping_down = role_ != Role::kFollower;
  bool dirty = false;
  if (term > current_term_) {
    // Eq. 3 / Raft: adopt the higher term and forget this term's vote.
    current_term_ = term;
    voted_for_ = kNoServer;
    dirty = true;
  }
  // Deposed leaders answer no more reads: pending ReadIndex batches can no
  // longer be confirmed in this term, and a lease must never outlive the
  // leadership it certifies.
  reset_read_state(now);
  role_ = Role::kFollower;
  leader_id_ = leader;
  votes_.clear();
  heartbeat_deadline_ = kNever;
  if (dirty) persist_state();
  if (stepping_down) {
    emit({.kind = NodeEvent::Kind::kSteppedDown, .term = current_term_, .at = now});
  }
  if (reset_timer || election_deadline_ == kNever) arm_election_timer(now);
}

void RaftNode::start_campaign(TimePoint now, bool leadership_transfer) {
  if (!membership_.is_voter(id_)) {
    // Learners and removed servers never campaign (their election timer is
    // disarmed; this also shields against a stray TimeoutNow or a scripted
    // timer override).
    return;
  }
  if (role_ == Role::kLeader) {
    // Re-campaign out of a leadership (possible only via scripted timers):
    // drop the read state the old leadership accumulated.
    reset_read_state(now);
  }
  role_ = Role::kCandidate;
  leader_id_ = kNoServer;
  current_term_ = policy_->campaign_term(current_term_);
  voted_for_ = id_;
  votes_.clear();
  votes_.insert(id_);
  persist_state();
  ++counters_.campaigns_started;
  emit({.kind = NodeEvent::Kind::kCampaignStarted, .term = current_term_, .at = now});
  LOG_DEBUG(server_name(id_) << " campaigns in t=" << current_term_);

  rpc::RequestVote rv;
  rv.term = current_term_;
  rv.candidate_id = id_;
  rv.last_log_index = log_.last_index();
  rv.last_log_term = log_.last_term();
  rv.conf_clock = policy_->vote_request_clock();
  rv.leadership_transfer = leadership_transfer;
  // Solicit every voter of either set — a joint election needs both
  // majorities — but not learners: their grants would not count.
  for (ServerId peer : voter_others()) {
    send(peer, rv);
    ++counters_.request_votes_sent;
  }
  arm_election_timer(now);
  if (votes_win()) become_leader(now);  // single-node cluster
}

void RaftNode::become_leader(TimePoint now) {
  if (role_ != Role::kCandidate) throw std::logic_error("only a candidate can become leader");
  role_ = Role::kLeader;
  leader_id_ = id_;
  election_deadline_ = kNever;
  peers_.clear();
  for (ServerId peer : others_) {
    peers_.push_back({peer, Progress{log_.last_index() + 1, 0, 0, false}, 0, std::nullopt});
  }
  reset_read_state(now);  // a lease is earned per leadership, never inherited
  // The patrol pool covers the destination voter set: learners hold no
  // priority (they never campaign) and old-only voters are being retired.
  policy_->on_become_leader(patrol_others(), current_term_);
  ++counters_.elections_won;
  emit({.kind = NodeEvent::Kind::kBecameLeader, .term = current_term_, .at = now});
  LOG_DEBUG(server_name(id_) << " elected leader t=" << current_term_);

  if (options_.commit_noop_on_elect || conf_index_ > commit_index_) {
    // Barrier entry: commits everything from prior terms once it replicates
    // (Raft §5.4.2 — prior-term entries never commit by counting alone).
    // Forced when an uncommitted configuration entry was inherited: an
    // in-flight reconfiguration must complete without waiting for client
    // traffic to supply the current-term entry the commit rule needs.
    append_noop(now);
  }
  broadcast_heartbeat_round(now);
  maybe_advance_commit(now);  // single-node clusters
  // Inherited, already-committed joint config: append Cnew now. The
  // commit-driven trigger only fires on a commit *advance*, which an idle
  // leadership would otherwise never see.
  maybe_finish_conf_change(now);
}

// --- message handlers --------------------------------------------------------

void RaftNode::handle_request_vote(const rpc::RequestVote& m, TimePoint now) {
  // Vote-recency guard (Raft dissertation §4.2.3): a server that heard from
  // a live leader within the minimum election timeout neither grants the
  // vote *nor adopts the candidate's term* — otherwise a partially
  // partitioned server could depose a healthy leader through voters that
  // still hear it, which is exactly the hole that would let an expired-lease
  // argument fail (see NodeOptions::lease_ratio). Leaders trust their own
  // authority the same way. A TimeoutNow-triggered campaign bypasses the
  // guard: the sanctioning leader already revoked its lease.
  if (!m.leadership_transfer && m.candidate_id != id_) {
    const auto guard_window = static_cast<Duration>(
        options_.vote_guard_ratio * static_cast<double>(policy_->min_election_timeout()));
    const bool leader_is_live =
        role_ == Role::kLeader ||
        (leader_id_ != kNoServer && last_leader_contact_ != kNever &&
         now - last_leader_contact_ < guard_window) ||
        now < restart_guard_until_;
    if (leader_is_live) {
      ++counters_.votes_refused_recent_leader;
      rpc::RequestVoteReply refusal;
      refusal.term = current_term_;
      refusal.vote_granted = false;
      refusal.voter_id = id_;
      send(m.candidate_id, refusal);
      return;
    }
  }
  if (m.term > current_term_) {
    become_follower(m.term, kNoServer, now, /*reset_timer=*/false);
  }
  bool granted = false;
  if (m.term == current_term_ && (voted_for_ == kNoServer || voted_for_ == m.candidate_id) &&
      log_.candidate_is_up_to_date(m.last_log_index, m.last_log_term) &&
      policy_->approve_candidate(m)) {
    granted = true;
    if (voted_for_ != m.candidate_id) {
      voted_for_ = m.candidate_id;
      persist_state();
    }
    ++counters_.votes_granted;
    emit({.kind = NodeEvent::Kind::kVoteGranted,
          .peer = m.candidate_id,
          .term = current_term_,
          .at = now});
    arm_election_timer(now);  // granting a vote defers our own candidacy
  }
  rpc::RequestVoteReply reply;
  reply.term = current_term_;
  reply.vote_granted = granted;
  reply.voter_id = id_;
  send(m.candidate_id, reply);
}

void RaftNode::handle_request_vote_reply(const rpc::RequestVoteReply& m, TimePoint now) {
  if (m.term > current_term_) {
    become_follower(m.term, kNoServer, now, /*reset_timer=*/false);
    return;
  }
  if (role_ != Role::kCandidate || m.term < current_term_ || !m.vote_granted) return;
  votes_.insert(m.voter_id);
  if (votes_win()) become_leader(now);
}

void RaftNode::handle_append_entries(ServerId from, const rpc::AppendEntries& m, TimePoint now) {
  (void)from;
  if (m.term < current_term_) {
    rpc::AppendEntriesReply reply;
    reply.term = current_term_;
    reply.success = false;
    reply.from = id_;
    reply.status = own_status();
    send(m.leader_id, reply);
    return;
  }
  if (m.term > current_term_) {
    become_follower(m.term, m.leader_id, now, /*reset_timer=*/false);
  } else if (role_ == Role::kCandidate) {
    become_follower(m.term, m.leader_id, now, /*reset_timer=*/false);
  } else if (role_ == Role::kLeader) {
    // Two leaders in one term violates Election Safety; refuse loudly.
    LOG_ERROR(server_name(id_) << " saw AppendEntries from " << server_name(m.leader_id)
                               << " in own leadership term " << current_term_);
    return;
  }
  leader_id_ = m.leader_id;
  last_leader_contact_ = now;  // vote-recency guard input

  // Adopt any piggybacked configuration before re-arming the timer so the
  // new election-timeout period takes effect immediately (Section IV-B).
  if (m.new_config && policy_->on_config_received(*m.new_config)) {
    persist_state();
    ++counters_.config_adoptions;
    emit({.kind = NodeEvent::Kind::kConfigAdopted,
          .term = current_term_,
          .config = *m.new_config,
          .at = now});
  }
  arm_election_timer(now);

  rpc::AppendEntriesReply reply;
  reply.term = current_term_;
  reply.from = id_;
  // Echo the broadcast round even on replication failure: either reply
  // proves this follower still recognizes the sender's term, which is all a
  // ReadIndex confirmation (or lease extension) needs.
  reply.round = m.round;

  // A prev inside our compacted prefix is vacuously consistent: everything
  // at or below the snapshot boundary is committed, and committed prefixes
  // agree on every server (Leader Completeness). The boundary itself still
  // checks its retained term.
  const bool prefix_ok = m.prev_log_index < log_.base() ||
                         log_.matches(m.prev_log_index, m.prev_log_term);
  if (!prefix_ok) {
    reply.success = false;
    if (log_.last_index() < m.prev_log_index) {
      // Log too short: leader should back up to our tail.
      reply.conflict_index = log_.last_index() + 1;
      reply.conflict_term = 0;
    } else {
      // Term mismatch at prev: report the whole conflicting term at once.
      reply.conflict_term = log_.term_at(m.prev_log_index).value_or(0);
      reply.conflict_index =
          log_.first_index_of_term(reply.conflict_term).value_or(m.prev_log_index);
    }
    reply.status = own_status();
    send(m.leader_id, reply);
    return;
  }

  for (const auto& e : m.entries) {
    if (e.index <= log_.base()) continue;  // already absorbed by our snapshot
    const auto existing = log_.term_at(e.index);
    if (existing && *existing != e.term) {
      ready_.log_ops.push_back(LogOp::truncate_from(e.index));
      log_.truncate_from(e.index);
      if (conf_index_ >= e.index) {
        // The conflicting suffix carried the conf entry we had adopted
        // (latest-config-in-log cuts both ways: an uncommitted conf entry
        // rolls back when the log does).
        rescan_membership(now);
      }
    }
    if (e.index > log_.last_index()) {
      append_entry(e, now);  // a conf entry takes effect right here
    }
  }

  if (m.leader_commit > commit_index_) {
    commit_index_ = std::min(m.leader_commit, log_.last_index());
    apply_committed(now);
    emit({.kind = NodeEvent::Kind::kCommitAdvanced,
          .term = current_term_,
          .index = commit_index_,
          .at = now});
  }

  reply.success = true;
  reply.match_index = m.prev_log_index + static_cast<LogIndex>(m.entries.size());
  reply.status = own_status();
  send(m.leader_id, reply);
}

void RaftNode::handle_append_entries_reply(const rpc::AppendEntriesReply& m, TimePoint now) {
  if (m.term > current_term_) {
    become_follower(m.term, kNoServer, now, /*reset_timer=*/false);
    return;
  }
  if (role_ != Role::kLeader || m.term < current_term_) return;

  // PPF input: track log responsiveness regardless of replication outcome.
  policy_->on_follower_status(m.from, m.status);

  Peer* p = find_peer(m.from);
  if (p == nullptr) return;  // reply from a non-member
  // The peer is alive and talking: lift the snapshot-resend throttle so a
  // follower that still needs the snapshot gets it immediately.
  p->snapshot_sent_round.reset();
  // Read fast path: count the echoed round toward quorum confirmation
  // (success or not — the reply proves the follower is still in our term).
  note_round_ack(*p, m.round, now);

  Progress& pr = p->progress;

  if (m.success) {
    pr.match = std::max(pr.match, m.match_index);
    pr.next = std::max(pr.next, m.match_index + 1);
    if (pr.inflight > 0) --pr.inflight;  // one batch confirmed, window reopens
    pr.probing = false;
    maybe_advance_commit(now);
    maybe_send_appends(m.from);  // refill the pipeline
  } else {
    LogIndex next;
    if (m.conflict_term != 0) {
      // If we have entries of the conflicting term, probe just past our last
      // one; otherwise skip the follower's entire conflicting term.
      const auto last_of_term = log_.last_index_of_term(m.conflict_term);
      next = last_of_term ? *last_of_term + 1 : m.conflict_index;
    } else {
      next = m.conflict_index;
    }
    next = std::clamp<LogIndex>(next, 1, log_.last_index() + 1);
    if (next <= pr.match) {
      // Stale rejection: a pipelined batch this peer NACKed before a later
      // success established agreement through pr.match. Walking `next` back
      // below match would resend entries the peer provably holds.
      return;
    }
    // Guarantee progress even with a degenerate hint, but never below the
    // agreed prefix.
    pr.next = std::max(pr.match + 1,
                       std::min(next, std::max<LogIndex>(1, pr.next > 1 ? pr.next - 1 : 1)));
    // Probe state: close the window to this single message until the peer
    // confirms where the logs agree — blasting max_inflight_msgs speculative
    // batches at a diverged follower would all be rejected anyway.
    pr.probing = true;
    pr.inflight = 0;
    send_append_entries(m.from, /*include_config=*/false);
  }
}

void RaftNode::handle_install_snapshot(const rpc::InstallSnapshot& m, TimePoint now) {
  rpc::InstallSnapshotReply reply;
  reply.from = id_;
  if (m.term < current_term_) {
    reply.term = current_term_;
    reply.success = false;
    reply.status = own_status();
    send(m.leader_id, reply);
    return;
  }
  if (m.term > current_term_ || role_ == Role::kCandidate) {
    become_follower(m.term, m.leader_id, now, /*reset_timer=*/false);
  } else if (role_ == Role::kLeader) {
    // Same-term InstallSnapshot from another leader: Election Safety is
    // broken; refuse loudly, as with AppendEntries.
    LOG_ERROR(server_name(id_) << " saw InstallSnapshot from " << server_name(m.leader_id)
                               << " in own leadership term " << current_term_);
    return;
  }
  leader_id_ = m.leader_id;
  last_leader_contact_ = now;  // vote-recency guard input
  arm_election_timer(now);
  reply.term = current_term_;
  reply.success = true;
  reply.round = m.round;  // a snapshot shipped for a round still confirms it

  if (m.last_included_index <= commit_index_) {
    // Stale or duplicate snapshot: we already hold (and may have applied)
    // everything it covers. Report how far we actually are so the leader's
    // next_index jumps past the resend.
    reply.match_index = commit_index_;
    reply.status = own_status();
    send(m.leader_id, reply);
    return;
  }

  // The message carries this follower's own PPF assignment; only a strictly
  // fresher clock is adopted, so an old snapshot resend can never roll the
  // confClock back.
  if (policy_->on_config_received(m.config)) {
    ++counters_.config_adoptions;
    emit({.kind = NodeEvent::Kind::kConfigAdopted,
          .term = current_term_,
          .config = m.config,
          .at = now});
    arm_election_timer(now);  // the adopted timeout takes effect immediately
  }
  persist_state();

  Snapshot snap;
  snap.last_included_index = m.last_included_index;
  snap.last_included_term = m.last_included_term;
  // Our own snapshot stores *our* adopted configuration (it restores our
  // identity at restart), which the adoption above just refreshed.
  snap.config = policy_->current_config();
  // Membership as of the snapshot boundary: what the leader shipped (a
  // learner catching up by snapshot learns the voter set from here). An
  // empty shipped membership (hand-crafted legacy message) keeps what we
  // already believe.
  snap.membership = m.membership.empty() ? membership_ : m.membership;
  snap.state = m.state;
  snapshot_ = std::make_shared<const Snapshot>(std::move(snap));
  // Same crash-ordering rule as compact(): the snapshot must be durable
  // before the WAL drops the prefix it stands in for — a crash in between
  // otherwise reopens a WAL rebased past a snapshot that does not exist.
  // Drivers without a snapshot store (can_compact_ false) skip the save but
  // still compact their WAL, exactly as before the core/driver split.
  if (can_compact_) {
    ready_.log_ops.push_back(LogOp::save_snapshot(snapshot_));
  }

  // When our log already contains the boundary entry with the right term,
  // the suffix beyond it is consistent and survives; otherwise the whole
  // log is superseded and rebases onto the snapshot.
  const auto existing = log_.term_at(m.last_included_index);
  if (existing && *existing == m.last_included_term) {
    ready_.log_ops.push_back(LogOp::compact_to(m.last_included_index));
    log_.compact_to(m.last_included_index);
  } else {
    if (m.last_included_index < log_.last_index()) {
      ready_.log_ops.push_back(
          LogOp::truncate_from(std::max(m.last_included_index + 1, log_.first_index())));
    }
    ready_.log_ops.push_back(LogOp::compact_to(m.last_included_index));
    log_.reset_to(m.last_included_index, m.last_included_term);
  }
  commit_index_ = m.last_included_index;
  last_applied_ = m.last_included_index;
  // The snapshot boundary is the log's new base: its membership becomes the
  // base membership, and conf entries surviving in the retained suffix (the
  // consistent-suffix case above) still override it.
  base_membership_ = snapshot_->membership;
  rescan_membership(now);
  ready_.committed.clear();  // superseded by the snapshot's state
  ready_.restore = snapshot_;
  ++counters_.snapshots_installed;
  emit({.kind = NodeEvent::Kind::kSnapshotInstalled,
        .term = current_term_,
        .index = m.last_included_index,
        .at = now});
  LOG_DEBUG(server_name(id_) << " installed snapshot through " << m.last_included_index);

  reply.match_index = m.last_included_index;
  reply.status = own_status();
  send(m.leader_id, reply);
}

void RaftNode::handle_install_snapshot_reply(const rpc::InstallSnapshotReply& m,
                                             TimePoint now) {
  if (m.term > current_term_) {
    become_follower(m.term, kNoServer, now, /*reset_timer=*/false);
    return;
  }
  if (role_ != Role::kLeader || m.term < current_term_) return;
  Peer* p = find_peer(m.from);
  if (p != nullptr) p->snapshot_sent_round.reset();  // it arrived; resume normal flow
  if (!m.success) return;
  policy_->on_follower_status(m.from, m.status);
  if (p == nullptr) return;
  note_round_ack(*p, m.round, now);
  Progress& pr = p->progress;
  pr.match = std::max(pr.match, m.match_index);
  pr.next = std::max(pr.next, m.match_index + 1);
  pr.probing = false;
  pr.inflight = 0;  // the snapshot round-trip drained anything speculative
  maybe_advance_commit(now);
  maybe_send_appends(m.from);  // ship the suffix
}

// --- leader machinery ----------------------------------------------------------

void RaftNode::broadcast_heartbeat_round(TimePoint now) {
  ++counters_.heartbeat_rounds;
  // ESCAPE twist: feed each follower's replication backlog and pipeline
  // depth into the policy before the patrol ranks followers, so π(P, k)
  // reflects not just the last log index a follower reported but how much
  // the leader still owes it under the current load.
  for (const Peer& p : peers_) {
    const LogIndex backlog =
        log_.last_index() > p.progress.match ? log_.last_index() - p.progress.match : 0;
    policy_->on_follower_backlog(p.id, backlog, p.progress.inflight);
  }
  policy_->begin_heartbeat_round();
  ++broadcast_round_;
  if (!others_.empty()) {
    // Remember the send instant: it anchors the lease extension when a
    // quorum echoes this round. Cap the unconfirmed backlog — a leader that
    // cannot reach a quorum (minority partition) must not grow this map for
    // as long as the partition lasts, and rounds that old can no longer
    // extend a useful lease anyway.
    round_sent_at_[broadcast_round_] = now;
    while (round_sent_at_.size() > 64) round_sent_at_.erase(round_sent_at_.begin());
  }
  for (Peer& p : peers_) {
    // Round-trip valve for the pipelining window: anything still unacked
    // after a full heartbeat interval is treated as lost — the reset reopens
    // the window, and the heartbeat itself re-probes from the optimistic
    // cursor (a follower that missed entries NACKs with conflict hints,
    // which walk the cursor back). Without this, max_inflight_msgs dropped
    // batches would wedge the window shut forever.
    p.progress.inflight = 0;
    p.progress.probing = false;
    send_append_entries(p.id, /*include_config=*/true);
    maybe_send_appends(p.id);  // pipeline catch-up traffic behind the round
  }
  heartbeat_deadline_ = now + options_.heartbeat_interval;
}

void RaftNode::maybe_send_appends(ServerId peer) {
  Peer* p = find_peer(peer);
  if (p == nullptr) return;
  Progress& pr = p->progress;
  while (!pr.probing && pr.inflight < options_.max_inflight_msgs &&
         (pr.next <= log_.last_index() || pr.next <= log_.base())) {
    const LogIndex before = pr.next;
    send_append_entries(peer, /*include_config=*/false);
    // The snapshot path (and its resend throttle) does not advance the
    // cursor; bail instead of spinning.
    if (pr.next == before) break;
  }
}

std::vector<rpc::LogEntry> RaftNode::gather_entries(LogIndex from) const {
  std::vector<rpc::LogEntry> out = log_.slice(from, options_.max_entries_per_rpc);
  std::size_t bytes = 0;
  std::size_t n = 0;
  for (; n < out.size(); ++n) {
    bytes += out[n].command.size() + kEntryFramingBytes;
    if (n > 0 && bytes > options_.max_bytes_per_msg) break;  // always keep >= 1
  }
  out.resize(n);
  return out;
}

void RaftNode::send_append_entries(ServerId peer, bool include_config) {
  Peer* p = find_peer(peer);
  if (p == nullptr) throw std::logic_error("append to " + server_name(peer) + ": not a peer");
  Progress& pr = p->progress;
  const LogIndex next = pr.next;
  if (next <= log_.base()) {
    // The entries this follower needs are compacted away; only the snapshot
    // can catch it up (Raft §7). Re-ship to a *silent* peer (likely down —
    // every copy would be dropped anyway) only every kSnapshotRetryRounds
    // heartbeats; any reply from the peer clears the throttle.
    if (p->snapshot_sent_round &&
        counters_.heartbeat_rounds - *p->snapshot_sent_round < kSnapshotRetryRounds) {
      return;
    }
    p->snapshot_sent_round = counters_.heartbeat_rounds;
    send_install_snapshot(peer);
    return;
  }
  rpc::AppendEntries ae;
  ae.term = current_term_;
  ae.leader_id = id_;
  ae.prev_log_index = next - 1;
  ae.prev_log_term = log_.term_at(next - 1).value_or(0);
  ae.entries = gather_entries(next);
  ae.leader_commit = commit_index_;
  // Every append is stamped with the latest broadcast round: a catch-up
  // append sent after round R was opened is sent no earlier than R's
  // heartbeats, so its ack confirms R just as well.
  ae.round = broadcast_round_;
  if (include_config) ae.new_config = policy_->config_for(peer);
  if (!ae.entries.empty()) {
    // Optimistic pipelining: assume delivery and march the cursor past the
    // batch so the next send ships the *following* entries instead of
    // resending these. A rejection (or the next heartbeat's NACK after a
    // loss) walks it back via conflict hints.
    pr.next = ae.entries.back().index + 1;
    ++pr.inflight;
    counters_.append_batch_entries.record(ae.entries.size());
    counters_.inflight_depth.record(pr.inflight);
  }
  send(peer, std::move(ae));
  ++counters_.append_entries_sent;
}

void RaftNode::send_install_snapshot(ServerId peer) {
  if (!snapshot_) {
    // A compacted log without a snapshot in memory should be impossible
    // (compact() builds one before compacting); surface it instead of
    // spinning.
    LOG_ERROR(server_name(id_) << " log compacted to " << log_.base()
                               << " but no snapshot available for " << server_name(peer));
    return;
  }
  rpc::InstallSnapshot is;
  is.term = current_term_;
  is.leader_id = id_;
  is.last_included_index = snapshot_->last_included_index;
  is.last_included_term = snapshot_->last_included_term;
  // Ship the *destination's* standing PPF assignment (as a heartbeat would),
  // never this leader's own stored configuration: two servers holding the
  // same (P, k) pair is exactly the Lemma 3 violation the clock exists to
  // rule out. Zeros (no assignment / non-ESCAPE policy) adopt as a no-op.
  is.config = policy_->assignment_for(peer).value_or(rpc::Configuration{});
  is.membership = snapshot_->membership;
  is.state = snapshot_->state;
  is.round = broadcast_round_;  // counts toward the round's quorum, as an AE would
  send(peer, std::move(is));
  ++counters_.install_snapshots_sent;
}

void RaftNode::maybe_advance_commit(TimePoint now) {
  // Raft §5.4.2: only entries of the current term commit by counting. The
  // highest index a majority holds is the quorum match (self counts at the
  // log tail: the Ready contract persists the leader's own entries before
  // the acks that drive this arrive); joint consensus needs majorities of
  // BOTH voter sets while Cold,new is in force (dissertation §4.3). Terms
  // never decrease along the log, so if that index is not of the current
  // term, no lower one is either: older-term entries commit transitively.
  // Learners and retired peers hold a slot but sit outside every voter set,
  // so their matches never count here.
  const LogIndex last = log_.last_index();
  if (commit_index_ >= last || membership_.voters.empty()) return;
  const auto self = static_cast<std::uint64_t>(last);
  const auto match = [](const Peer& p) { return static_cast<std::uint64_t>(p.progress.match); };
  std::uint64_t majority = quorum_value(membership_.voters, self, match);
  if (membership_.joint()) {
    majority = std::min(majority, quorum_value(membership_.old_voters, self, match));
  }
  const LogIndex n = std::min(static_cast<LogIndex>(majority), last);
  if (n <= commit_index_) return;
  const auto t = log_.term_at(n);
  if (!t || *t != current_term_) return;
  commit_index_ = n;
  apply_committed(now);
  emit({.kind = NodeEvent::Kind::kCommitAdvanced, .term = current_term_, .index = n, .at = now});
  // Conf-change state machine: committing the joint entry triggers the Cnew
  // append; committing Cnew retires a removed leader.
  maybe_finish_conf_change(now);
}

template <typename PeerValue>
std::uint64_t RaftNode::quorum_value(const std::vector<ServerId>& set, std::uint64_t self_value,
                                     PeerValue value) {
  if (set.empty()) return self_value;
  quorum_scratch_.clear();
  // Voter sets are sorted like peers_, so one forward walk finds every
  // member; an unsorted set only restarts the walk.
  auto peer = peers_.cbegin();
  ServerId previous = kNoServer;
  for (const ServerId s : set) {
    if (s == id_) {
      quorum_scratch_.push_back(self_value);
      continue;
    }
    if (s < previous) peer = peers_.cbegin();
    previous = s;
    while (peer != peers_.cend() && peer->id < s) ++peer;
    quorum_scratch_.push_back(peer != peers_.cend() && peer->id == s ? value(*peer) : 0);
  }
  const auto nth = quorum_scratch_.begin() + static_cast<std::ptrdiff_t>(set.size() / 2);
  std::nth_element(quorum_scratch_.begin(), nth, quorum_scratch_.end(), std::greater<>());
  return *nth;
}

const RaftNode::Peer* RaftNode::find_peer(ServerId id) const {
  const auto it = std::lower_bound(peers_.begin(), peers_.end(), id,
                                   [](const Peer& p, ServerId s) { return p.id < s; });
  return it != peers_.end() && it->id == id ? &*it : nullptr;
}

RaftNode::Peer* RaftNode::find_peer(ServerId id) {
  return const_cast<Peer*>(std::as_const(*this).find_peer(id));
}

// --- common machinery ------------------------------------------------------------

void RaftNode::arm_election_timer(TimePoint now) {
  if (role_ == Role::kLeader || !membership_.is_voter(id_)) {
    // Leaders heartbeat instead; learners and removed servers never
    // campaign (Figure 5's "NA/inf" timer, extended to non-voters).
    election_deadline_ = kNever;
    return;
  }
  election_deadline_ = now + policy_->next_election_timeout(rng_);
}

void RaftNode::persist_state() {
  HardState s;
  s.current_term = current_term_;
  s.voted_for = voted_for_;
  s.config = policy_->current_config();
  // Later persists within one batch overwrite earlier ones: hard state is
  // monotone within a batch, and the newest value subsumes what any message
  // already queued in this batch relies on.
  ready_.hard_state = std::move(s);
}

void RaftNode::append_entry(rpc::LogEntry entry, TimePoint now) {
  ready_.log_ops.push_back(LogOp::append(entry));
  const bool conf = entry.kind == rpc::EntryKind::kConfChange;
  log_.append(std::move(entry));
  if (conf) {
    // Latest-config-in-log (dissertation §4.1): a configuration entry takes
    // effect the moment it is appended, on leader and follower alike.
    const auto* e = log_.entry_at(log_.last_index());
    set_membership(decode_conf_entry(e->command), log_.last_index(), now);
  }
}

void RaftNode::apply_committed(TimePoint now) {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    const auto* e = log_.entry_at(last_applied_);
    if (e == nullptr) {
      throw std::logic_error("committed entry " + std::to_string(last_applied_) +
                             " is missing from the log");
    }
    ready_.committed.push_back(*e);
    ++counters_.entries_committed;
  }
  // A pending read whose round is already confirmed may have been waiting
  // only for the apply cursor (fresh-leadership reads wait on the inherited
  // log tail committing, which just happened here).
  if (role_ == Role::kLeader && !pending_reads_.empty()) release_ready_reads(now);
}

void RaftNode::send(ServerId to, rpc::Message message) {
  ready_.messages.push_back({id_, to, std::move(message)});
}

void RaftNode::emit(NodeEvent event) {
  event.node = id_;
  if (event_hook_) event_hook_(event);
}

rpc::ConfigStatus RaftNode::own_status() const {
  const auto cfg = policy_->current_config();
  rpc::ConfigStatus s;
  s.log_index = log_.last_index();
  s.timer_period = cfg.timer_period;
  s.conf_clock = cfg.conf_clock;
  return s;
}

SoftState RaftNode::soft_state() const {
  SoftState s;
  s.role = role_;
  s.leader = leader_id_;
  s.term = current_term_;
  s.conf_clock = policy_->current_config().conf_clock;
  return s;
}

void RaftNode::sync_soft_state() {
  const SoftState s = soft_state();
  if (!soft_reported_once_ || !(s == reported_soft_)) {
    ready_.soft_state = s;
  } else {
    // The state drifted and came back before the batch was drained; nothing
    // to report after all.
    ready_.soft_state.reset();
  }
}

void RaftNode::require_started() const {
  if (!started_) throw std::logic_error("input before start()");
}

void RaftNode::assert_inputs_allowed() const {
  if (ready_in_flight_) {
    throw std::logic_error(
        "input stepped between ready() and advance(): the driver is mid-drain");
  }
}

}  // namespace escape::raft
