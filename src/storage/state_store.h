// Durable per-server state.
//
// Raft requires current_term and voted_for to survive restarts; ESCAPE
// additionally persists the server's adopted configuration π(P, k) — the
// paper's Figure 5b depends on a recovering server restoring its (possibly
// stale) priority and configuration clock.
//
// FileStateStore writes atomically (tmp file + fsync + rename + directory
// fsync) with a CRC so a crash mid-write leaves the previous state intact.
#pragma once

#include <optional>
#include <string>

#include "raft/ready.h"
#include "rpc/messages.h"

namespace escape::storage {

/// State that must be durable before a server answers an RPC. The value type
/// is raft::HardState — the deterministic core emits it in Ready batches and
/// never touches the store itself; drivers persist it here.
using PersistentState = ::escape::raft::HardState;

/// Abstract durable store for PersistentState.
class StateStore {
 public:
  virtual ~StateStore() = default;

  /// Durably replaces the stored state. Must not return before the state
  /// would survive a crash (for file-backed implementations).
  virtual void save(const PersistentState& state) = 0;

  /// Loads the last saved state; nullopt when nothing was ever saved.
  virtual std::optional<PersistentState> load() = 0;
};

/// Volatile store for simulation and tests. A simulated crash keeps the
/// MemoryStateStore alive while the node object is destroyed, modelling a
/// machine whose disk survives the process.
class MemoryStateStore final : public StateStore {
 public:
  void save(const PersistentState& state) override {
    state_ = state;
    ++save_count_;
  }
  std::optional<PersistentState> load() override { return state_; }

  /// Number of save() calls (tests assert persistence happens when required).
  std::size_t save_count() const { return save_count_; }

 private:
  std::optional<PersistentState> state_;
  std::size_t save_count_ = 0;
};

/// Crash-safe file-backed store.
class FileStateStore final : public StateStore {
 public:
  /// `path` is the state file; writes go to `path.tmp` then rename.
  explicit FileStateStore(std::string path);

  void save(const PersistentState& state) override;
  std::optional<PersistentState> load() override;

 private:
  std::string path_;
};

}  // namespace escape::storage
