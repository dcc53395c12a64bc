#include "sim/invariants.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace escape::sim {

InvariantChecker::InvariantChecker(SimCluster& cluster, bool check_configs)
    : cluster_(cluster), check_configs_(check_configs) {
  cluster_.add_event_listener([this](const raft::NodeEvent& e) { on_event(e); });
  cluster_.add_read_listener(
      [this](ServerId id, const raft::ReadGrant& g) { on_read(id, g); });
}

void InvariantChecker::on_read(ServerId id, const raft::ReadGrant& grant) {
  if (!grant.ok) return;  // rejections are a liveness outcome, not a safety one
  // Only probe-ledger reads are auditable: the floor was recorded at issue
  // time by SimCluster::submit_read (and is erased right after this runs).
  const auto floor = cluster_.read_floor(id, grant.id);
  if (!floor) return;
  ++reads_checked_;
  if (grant.read_index < *floor) {
    std::ostringstream os;
    os << "read linearizability: " << server_name(id) << " granted a "
       << (grant.via_lease ? "lease" : "read-index") << " read at index " << grant.read_index
       << " behind commit floor " << *floor << " observed at issue time";
    add_violation(os.str());
  }
  if (cluster_.alive(id) && cluster_.node(id).last_applied() < grant.read_index) {
    std::ostringstream os;
    os << "read linearizability: " << server_name(id) << " granted a read at index "
       << grant.read_index << " but applied only " << cluster_.node(id).last_applied();
    add_violation(os.str());
  }
}

void InvariantChecker::add_violation(std::string v) {
  LOG_ERROR("INVARIANT VIOLATION: " << v);
  violations_.push_back(std::move(v));
}

void InvariantChecker::on_event(const raft::NodeEvent& event) {
  if (event.kind == raft::NodeEvent::Kind::kBecameLeader) {
    const auto [it, inserted] = leaders_by_term_.try_emplace(event.term, event.node);
    if (!inserted && it->second != event.node) {
      std::ostringstream os;
      os << "election safety: term " << event.term << " led by both "
         << server_name(it->second) << " and " << server_name(event.node);
      add_violation(os.str());
    }
    if (check_configs_) check_config_uniqueness();
  } else if (event.kind == raft::NodeEvent::Kind::kConfigAdopted && check_configs_) {
    check_config_uniqueness();
  }
}

void InvariantChecker::check_config_uniqueness() {
  // Lemma 3: same configuration clock implies different configurations.
  // Every live server, every call: holders of one pi(P, k) sort next to
  // each other, in member order within the pair.
  held_.clear();
  const auto& members = cluster_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!cluster_.alive(members[i])) continue;
    const auto cfg = cluster_.node(members[i]).policy().current_config();
    if (cfg.priority == 0 && cfg.conf_clock == 0) continue;  // non-ESCAPE policy
    held_.push_back({cfg.conf_clock, cfg.priority, i});
  }
  std::sort(held_.begin(), held_.end());
  // Each extra holder collides with the pair's first holder. Entries are
  // (extra holder's member position, first holder's index in held_), sorted
  // so reports follow member order; the list stays empty, unallocated, when
  // no pair collides.
  std::vector<std::pair<std::size_t, std::size_t>> collisions;
  std::size_t first = 0;
  for (std::size_t j = 1; j < held_.size(); ++j) {
    if (held_[j].clock != held_[first].clock || held_[j].priority != held_[first].priority) {
      first = j;
    } else {
      collisions.push_back({held_[j].member, first});
    }
  }
  std::sort(collisions.begin(), collisions.end());
  for (const auto& [member, owner] : collisions) {
    const Held& h = held_[owner];
    std::ostringstream os;
    os << "config uniqueness (Lemma 3): pi(P=" << h.priority << ",k=" << h.clock
       << ") held by both " << server_name(members[h.member]) << " and "
       << server_name(members[member]);
    add_violation(os.str());
  }
}

void InvariantChecker::deep_check() {
  const auto& members = cluster_.members();

  // Log Matching: if two logs agree on (index, term) they agree on the whole
  // prefix up to that index. Only the stored overlap is comparable — entries
  // below either snapshot boundary are gone (their consistency is covered by
  // the snapshot checks below and Leader Completeness).
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!cluster_.alive(members[i]) || !cluster_.alive(members[j])) continue;
      const auto& la = cluster_.node(members[i]).log();
      const auto& lb = cluster_.node(members[j]).log();
      const LogIndex common = std::min(la.last_index(), lb.last_index());
      const LogIndex floor = std::max(la.first_index(), lb.first_index());
      LogIndex agree = 0;
      for (LogIndex x = common; x >= floor; --x) {
        if (la.term_at(x) == lb.term_at(x)) {
          agree = x;
          break;
        }
      }
      for (LogIndex x = floor; x <= agree; ++x) {
        const auto* ea = la.entry_at(x);
        const auto* eb = lb.entry_at(x);
        if (ea == nullptr || eb == nullptr || !(*ea == *eb)) {
          std::ostringstream os;
          os << "log matching: " << server_name(members[i]) << " and " << server_name(members[j])
             << " diverge at index " << x << " despite agreeing at " << agree;
          add_violation(os.str());
          break;
        }
      }
      // The snapshot boundary participates too: if one log's base falls
      // inside the other's stored range, the retained boundary term must
      // match the stored entry's term.
      for (const auto* pair : {&la, &lb}) {
        const auto& snapped = *pair;
        const auto& other = (pair == &la) ? lb : la;
        const LogIndex b = snapped.base();
        if (b >= other.first_index() && b <= other.last_index() &&
            other.term_at(b) != snapped.term_at(b)) {
          std::ostringstream os;
          os << "log matching: snapshot boundary " << b << " term mismatch between "
             << server_name(members[i]) << " and " << server_name(members[j]);
          add_violation(os.str());
        }
      }
    }
  }

  // State-Machine Safety: replicas never apply different entries at the same
  // log index. Compared by index, not stream position: a snapshot-restored
  // replica's applied stream begins past the snapshot, and a recovered one
  // replays from its snapshot boundary.
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::map<LogIndex, const rpc::LogEntry*> by_index;
    for (const auto& entry : cluster_.applied(members[i])) {
      by_index[entry.index] = &entry;
    }
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      for (const auto& entry : cluster_.applied(members[j])) {
        const auto it = by_index.find(entry.index);
        if (it != by_index.end() && !(*it->second == entry)) {
          std::ostringstream os;
          os << "state-machine safety: " << server_name(members[i]) << " and "
             << server_name(members[j]) << " applied different entries at index "
             << entry.index;
          add_violation(os.str());
          break;
        }
      }
    }
  }

  // Leader Completeness: every applied (hence committed) entry must be in
  // the current leader's log at the same index and term — or below the
  // leader's snapshot boundary, where it is committed by construction (a
  // leader only compacts its own applied prefix, and an installed snapshot
  // only covers committed state).
  const ServerId leader = cluster_.leader();
  if (leader != kNoServer) {
    const auto& llog = cluster_.node(leader).log();
    for (ServerId id : members) {
      for (const auto& entry : cluster_.applied(id)) {
        if (entry.index <= llog.base()) continue;  // compacted, committed
        const auto* in_leader = llog.entry_at(entry.index);
        if (in_leader == nullptr || !(*in_leader == entry)) {
          std::ostringstream os;
          os << "leader completeness: entry " << entry.index << "/t" << entry.term
             << " applied by " << server_name(id) << " missing from leader "
             << server_name(leader);
          add_violation(os.str());
          break;
        }
      }
    }
  }

  // Membership agreement: a committed configuration entry is one log entry,
  // so any two servers whose latest config boundary is the same *committed*
  // index must have materialized the identical membership from it. (Uncommitted
  // boundaries are exempt — one server may sit on a divergent branch a future
  // leader will truncate.)
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!cluster_.alive(members[i]) || !cluster_.alive(members[j])) continue;
      const auto& na = cluster_.node(members[i]);
      const auto& nb = cluster_.node(members[j]);
      if (na.conf_index() != nb.conf_index()) continue;
      // conf_index 0 is the bootstrap base, not a log entry: a freshly
      // joined host boots as a self-learner while the seed trio boots as
      // voters, and only an adopted conf entry reconciles them.
      if (na.conf_index() == 0) continue;
      if (na.conf_index() > na.commit_index() || nb.conf_index() > nb.commit_index()) continue;
      if (!(na.membership() == nb.membership())) {
        std::ostringstream os;
        os << "membership agreement: " << server_name(members[i]) << " and "
           << server_name(members[j]) << " disagree on the configuration committed at index "
           << na.conf_index() << " (" << rpc::to_string(na.membership()) << " vs "
           << rpc::to_string(nb.membership()) << ")";
        add_violation(os.str());
      }
    }
  }

  // Snapshot clock monotonicity: the configuration generation a snapshot
  // carries is a floor for the server that holds it. A node whose adopted
  // confClock is behind its own snapshot's has regressed through a restore —
  // exactly the hazard carrying π(P, k) through snapshots exists to prevent.
  // The snapshot's boundary must also never outrun what the server applied.
  for (ServerId id : members) {
    if (!cluster_.alive(id)) continue;
    const auto snap = cluster_.snapshot_store(id).load();
    if (!snap || snap->last_included_index == 0) continue;
    const auto& node = cluster_.node(id);
    const auto cfg = node.policy().current_config();
    if (cfg.conf_clock < snap->config.conf_clock) {
      std::ostringstream os;
      os << "snapshot clock regression: " << server_name(id) << " adopted confClock "
         << cfg.conf_clock << " behind its snapshot's " << snap->config.conf_clock;
      add_violation(os.str());
    }
    if (snap->last_included_index > node.last_applied()) {
      std::ostringstream os;
      os << "snapshot ahead of state: " << server_name(id) << " snapshot covers "
         << snap->last_included_index << " but applied only " << node.last_applied();
      add_violation(os.str());
    }
    if (node.log().base() > 0 && !node.log().matches(snap->last_included_index,
                                                     snap->last_included_term) &&
        node.log().base() == snap->last_included_index) {
      std::ostringstream os;
      os << "snapshot boundary mismatch: " << server_name(id) << " log base term "
         << node.log().base_term() << " != snapshot term " << snap->last_included_term;
      add_violation(os.str());
    }
  }
}

}  // namespace escape::sim
