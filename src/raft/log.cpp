#include "raft/log.h"

#include <cassert>
#include <stdexcept>

namespace escape::raft {

Term Log::last_term() const {
  if (entries_.empty()) return base_term_;
  return entries_.back().term;
}

std::optional<Term> Log::term_at(LogIndex index) const {
  if (index == 0) return Term{0};
  if (index == base_) return base_term_;
  if (index < base_ || index > last_index()) return std::nullopt;
  return entries_[static_cast<std::size_t>(index - base_ - 1)].term;
}

const rpc::LogEntry* Log::entry_at(LogIndex index) const {
  if (index <= base_ || index > last_index()) return nullptr;
  return &entries_[static_cast<std::size_t>(index - base_ - 1)];
}

void Log::append(rpc::LogEntry entry) {
  if (entry.index != last_index() + 1) {
    throw std::logic_error("Log::append: non-contiguous index");
  }
  bytes_ += entry_bytes(entry);
  entries_.push_back(std::move(entry));
}

void Log::truncate_from(LogIndex from) {
  if (from <= base_) {
    throw std::logic_error("Log::truncate_from: index already compacted");
  }
  if (from > last_index()) return;
  const auto keep = entries_.begin() + static_cast<std::ptrdiff_t>(from - base_ - 1);
  for (auto it = keep; it != entries_.end(); ++it) bytes_ -= entry_bytes(*it);
  entries_.erase(keep, entries_.end());
}

void Log::compact_to(LogIndex upto) {
  if (upto <= base_) return;
  if (upto > last_index()) {
    throw std::logic_error("Log::compact_to: beyond tail");
  }
  base_term_ = entries_[static_cast<std::size_t>(upto - base_ - 1)].term;
  const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(upto - base_);
  for (auto it = entries_.begin(); it != end; ++it) bytes_ -= entry_bytes(*it);
  entries_.erase(entries_.begin(), end);
  base_ = upto;
}

void Log::reset_to(LogIndex index, Term term) {
  entries_.clear();
  bytes_ = 0;
  base_ = index;
  base_term_ = term;
}

std::vector<rpc::LogEntry> Log::slice(LogIndex from, std::size_t max_count) const {
  std::vector<rpc::LogEntry> out;
  if (from <= base_) return out;  // compacted away; caller must snapshot
  for (LogIndex i = from; i <= last_index() && out.size() < max_count; ++i) {
    out.push_back(*entry_at(i));
  }
  return out;
}

bool Log::matches(LogIndex index, Term term) const {
  const auto t = term_at(index);
  return t.has_value() && *t == term;
}

bool Log::candidate_is_up_to_date(LogIndex cand_last_index, Term cand_last_term) const {
  // Raft §5.4.1: compare last terms, break ties by length.
  if (cand_last_term != last_term()) return cand_last_term > last_term();
  return cand_last_index >= last_index();
}

std::optional<LogIndex> Log::first_index_of_term(Term t) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].term == t) return base_ + static_cast<LogIndex>(i) + 1;
  }
  return std::nullopt;
}

std::optional<LogIndex> Log::last_index_of_term(Term t) const {
  for (std::size_t i = entries_.size(); i > 0; --i) {
    if (entries_[i - 1].term == t) return base_ + static_cast<LogIndex>(i);
  }
  return std::nullopt;
}

}  // namespace escape::raft
