#ifndef CPA_SERVER_SESSION_MANAGER_H_
#define CPA_SERVER_SESSION_MANAGER_H_

/// \file session_manager.h
/// \brief Many concurrent `ConsensusEngine` sessions behind string ids.
///
/// The engine layer is deliberately single-session: one `ConsensusEngine`
/// is one stream, driven from one thread at a time. The `SessionManager`
/// is the concurrency layer on top — it owns the stream matrix of every
/// session (the wire protocol ships answers, not matrix indices), maps ids
/// to engines, serialises the engine calls of each session behind a
/// per-session mutex, and keeps every session's parallel sweep work on one
/// shared `ServerScheduler` pool instead of a pool per session.
///
/// Thread-safety contract:
/// - All methods may be called concurrently from any number of threads.
/// - Per session, `Observe` / `Snapshot(refresh=true)` / `Finalize` are
///   serialised (they mutate or refit the engine).
/// - `Snapshot(refresh=false)` is a poll: it hands out the most recently
///   published `SharedSnapshot` by one pointer copy under a small
///   per-session publish mutex — it never touches the session's engine
///   mutex and never copies the predictions — so pollers can never block
///   behind an in-flight `Observe` batch or refit.
/// - `List` reads per-session atomic counters — exact counters,
///   predictions as of the last refresh.
///
/// Sessions never expire on their own; `ExpireIdle` sweeps sessions idle
/// longer than a threshold (skipping any with an operation in flight) and
/// is driven by the server's `IdleSweeper` thread (idle_sweeper.h).

#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/answer_matrix.h"
#include "engine/consensus_engine.h"
#include "engine/engine_config.h"
#include "server/server_scheduler.h"
#include "util/status.h"

namespace cpa {

/// \brief Knobs of the session-serving layer.
struct SessionManagerOptions {
  /// Workers in the shared sweep pool. 1 (default) runs every session's
  /// sweeps inline on its calling thread — no pool is spawned.
  std::size_t num_threads = 1;

  /// Open-session cap; `Open` fails beyond it.
  std::size_t max_sessions = 64;
};

/// \brief The cheap consensus delta riding on every `Observe` ack: how far
/// the published snapshot lags the stream, and how much the consensus
/// moved at the last refresh. Computed once per refresh (an O(items)
/// prediction diff), read without the engine mutex afterwards — a client
/// can decide whether to pull a fresh snapshot without ever forcing one.
struct ConsensusDelta {
  /// Items whose predicted label set changed at the last published
  /// refresh (vs the previously published snapshot).
  std::size_t changed_items = 0;

  /// Counters of the currently published snapshot (compare with the ack's
  /// session counters to see how stale the published consensus is).
  std::size_t snapshot_batches_seen = 0;
  std::size_t snapshot_answers_seen = 0;
};

/// \brief Session counters after an accepted `Observe` batch.
struct ObserveAck {
  std::size_t batches_seen = 0;
  std::size_t answers_seen = 0;
  ConsensusDelta delta;
};

/// \brief Counters of a session rebuilt by `SessionManager::Restore`.
struct RestoreAck {
  std::string session_id;
  std::size_t batches_seen = 0;
  std::size_t answers_seen = 0;
};

/// \brief One row of `SessionManager::List`.
struct SessionInfo {
  std::string id;
  std::string method;
  std::size_t batches_seen = 0;
  std::size_t answers_seen = 0;
  bool finalized = false;
  double idle_seconds = 0.0;  ///< since the session's last operation
};

/// \brief Creates, serves, and expires engine sessions by id.
class SessionManager {
 public:
  explicit SessionManager(const SessionManagerOptions& options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session of `config.method` and returns its id — `session_id`
  /// when non-empty (must be unused), a generated "s<n>" otherwise. The
  /// manager owns the session's stream matrix (dimensioned from the
  /// config) and rebinds the config's executor to a shared-pool lane:
  /// under the manager, sessions never own pools (`config.num_threads` and
  /// `config.pool` are overridden).
  Result<std::string> Open(const EngineConfig& config, std::string session_id = "");

  /// Appends `answers` to the session's stream and feeds them to the
  /// engine as one batch; returns the session counters afterwards. Fails
  /// without mutating anything on out-of-range ids, empty label sets, an
  /// (item, worker) cell that already holds an answer, or a finalized
  /// session.
  Result<ObserveAck> Observe(std::string_view session_id,
                             std::span<const Answer> answers);

  /// The session's consensus as an immutable shared snapshot. `refresh`
  /// (default) runs the engine's snapshot (offline methods refit on
  /// everything seen) and publishes the result; `refresh=false` polls the
  /// published snapshot of the last refresh/finalize without
  /// ever taking the session's engine mutex — it never blocks behind an
  /// in-flight batch, and repeated polls return the *same* object (zero
  /// prediction copies per poll).
  Result<SharedSnapshot> Snapshot(std::string_view session_id, bool refresh = true);

  /// Finalizes the session (idempotent) and returns the final consensus.
  /// The session stays open for polling until `Close`.
  Result<SharedSnapshot> Finalize(std::string_view session_id);

  /// Serializes the whole session — config, stream matrix, published
  /// snapshot, engine state — into an opaque versioned blob (the unit the
  /// `checkpoint` wire op ships). The session stays open and unchanged.
  /// Fails for engines that don't implement state hooks.
  Result<std::string> Checkpoint(std::string_view session_id);

  /// Rebuilds a session from a `Checkpoint` blob. The new session opens
  /// under `session_id` when non-empty (must be unused), else under the id
  /// recorded in the blob. Continuing the restored session is bit-identical
  /// to continuing the original: the engine restores its sufficient
  /// statistics from the blob and the published snapshot is re-published
  /// verbatim (never recomputed — a recompute could perturb online state).
  Result<RestoreAck> Restore(std::string_view state, std::string session_id = "");

  /// Removes the session. In-flight operations on it complete normally.
  Status Close(std::string_view session_id);

  /// Closes every session idle for longer than `idle_seconds` (sessions
  /// with an operation in flight are never expired). Returns how many
  /// sessions were closed.
  std::size_t ExpireIdle(double idle_seconds);

  /// Snapshot of every open session, sorted by id.
  std::vector<SessionInfo> List() const;

  std::size_t num_sessions() const;
  const SessionManagerOptions& options() const { return options_; }

  /// The shared scheduler (nullptr when `num_threads == 1`).
  const ServerScheduler* scheduler() const { return scheduler_.get(); }

 private:
  struct Session;

  /// Looks up a session (nullptr when absent) without blocking on it.
  std::shared_ptr<Session> Find(std::string_view session_id) const;

  /// Seconds since manager construction (monotonic).
  double NowSeconds() const;

  SessionManagerOptions options_;

  /// Declared before `sessions_`: sessions (and their lanes) are destroyed
  /// first, then the scheduler joins its pool.
  std::unique_ptr<ServerScheduler> scheduler_;

  mutable std::mutex mutex_;  ///< guards `sessions_` and `next_id_`
  std::map<std::string, std::shared_ptr<Session>, std::less<>> sessions_;
  std::size_t next_id_ = 1;

  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace cpa

#endif  // CPA_SERVER_SESSION_MANAGER_H_
