#include "server/session_manager.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>

#include "engine/checkpoint.h"
#include "engine/engine_registry.h"
#include "util/json.h"
#include "util/string_utils.h"

namespace cpa {

namespace {

/// "CPAS" little-endian: session checkpoint blobs start with this magic
/// (the engine blob nested inside carries its own "CPAK" magic).
constexpr std::uint32_t kSessionCheckpointMagic = 0x53415043u;
constexpr std::uint16_t kSessionCheckpointVersion = 1;

}  // namespace

/// \brief One live session. `mutex` serialises the engine calls (and the
/// stream-matrix appends feeding them); the poll state is a handful of
/// atomics plus the published-snapshot pointer under its own small
/// `publish_mutex` — `Snapshot(refresh=false)` and `List` never wait on
/// `mutex`.
struct SessionManager::Session {
  std::mutex mutex;
  EngineConfig config;  ///< effective config (lane-bound, no owned pool)
  AnswerMatrix stream;
  std::unique_ptr<ServerScheduler::Lane> lane;  ///< destroyed after engine
  std::unique_ptr<ConsensusEngine> engine;

  /// Set (under `mutex`) when `ExpireIdle` removes the session. A caller
  /// that looked the session up before the expiry but acquires `mutex`
  /// after it sees the flag and reports NotFound instead of feeding
  /// answers to a session that no longer exists.
  bool closed = false;

  /// The published snapshot: swapped in under `mutex` on refresh/finalize
  /// and read by polls under `publish_mutex` alone, which guards nothing
  /// but this pointer — a poll holds it for one refcount bump and never
  /// waits on an engine call. The pointee is immutable, so handing the
  /// same shared body to any number of pollers is safe and copy-free.
  /// (A plain mutex, not `std::atomic<std::shared_ptr>`: libstdc++ 12's
  /// lock-bit implementation of the latter is opaque to TSan.)
  mutable std::mutex publish_mutex;
  SharedSnapshot published;

  SharedSnapshot LoadPublished() const {
    std::lock_guard<std::mutex> lock(publish_mutex);
    return published;
  }

  /// Swaps `snapshot` in; the previous body is released after the lock
  /// drops, so a last-reference destructor never runs under it.
  void StorePublished(SharedSnapshot snapshot) {
    {
      std::lock_guard<std::mutex> lock(publish_mutex);
      published.swap(snapshot);
    }
  }

  /// Items whose prediction changed at the last publish (the ObserveAck
  /// consensus delta); the published snapshot itself carries the counters.
  std::atomic<std::size_t> delta_changed_items{0};

  /// Exact session counters for List/acks (the published snapshot lags).
  std::atomic<std::size_t> batches_seen{0};
  std::atomic<std::size_t> answers_seen{0};
  std::atomic<bool> finalized{false};

  std::atomic<double> last_touch{0.0};  ///< NowSeconds of the last operation

  /// Publishes `snapshot` (under `mutex`) and refreshes the delta against
  /// the previously published predictions.
  void Publish(SharedSnapshot snapshot) {
    const SharedSnapshot previous = LoadPublished();
    std::size_t changed = 0;
    if (previous != nullptr && previous.get() != snapshot.get()) {
      const std::vector<LabelSet>& before = previous->predictions;
      const std::vector<LabelSet>& after = snapshot->predictions;
      const std::size_t common = std::min(before.size(), after.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (!(before[i] == after[i])) ++changed;
      }
      // Items only one side covers count as changed unless empty.
      for (std::size_t i = common; i < before.size(); ++i) {
        if (!before[i].empty()) ++changed;
      }
      for (std::size_t i = common; i < after.size(); ++i) {
        if (!after[i].empty()) ++changed;
      }
      delta_changed_items.store(changed, std::memory_order_relaxed);
    }
    StorePublished(std::move(snapshot));
  }

  ConsensusDelta Delta() const {
    ConsensusDelta delta;
    const SharedSnapshot snapshot = LoadPublished();
    delta.changed_items = delta_changed_items.load(std::memory_order_relaxed);
    if (snapshot != nullptr) {
      delta.snapshot_batches_seen = snapshot->batches_seen;
      delta.snapshot_answers_seen = snapshot->answers_seen;
    }
    return delta;
  }
};

SessionManager::SessionManager(const SessionManagerOptions& options)
    : options_(options),
      scheduler_(options.num_threads > 1
                     ? std::make_unique<ServerScheduler>(options.num_threads)
                     : nullptr),
      epoch_(std::chrono::steady_clock::now()) {}

SessionManager::~SessionManager() = default;

double SessionManager::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::shared_ptr<SessionManager::Session> SessionManager::Find(
    std::string_view session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

Result<std::string> SessionManager::Open(const EngineConfig& config,
                                         std::string session_id) {
  // Fast pre-checks so a saturated server rejects floods of opens without
  // paying engine/lane construction (both re-checked at insertion — a
  // concurrent Open may have raced us in between).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() >= options_.max_sessions) {
      return Status::FailedPrecondition(
          StrFormat("session limit reached (%zu open, max_sessions=%zu)",
                    sessions_.size(), options_.max_sessions));
    }
    if (!session_id.empty() && sessions_.count(session_id) > 0) {
      return Status::InvalidArgument(
          StrFormat("session id '%s' is already open", session_id.c_str()));
    }
  }
  auto session = std::make_shared<Session>();
  session->config = config;
  // Under the manager every session runs on the shared pool (or inline):
  // session-owned pools are exactly what the server replaces.
  session->config.num_threads = 1;
  session->config.pool = nullptr;
  if (scheduler_ != nullptr) {
    session->lane = scheduler_->CreateLane();
    session->config.pool = session->lane.get();
  }
  CPA_ASSIGN_OR_RETURN(session->engine,
                       EngineRegistry::Global().Open(session->config));
  session->stream = AnswerMatrix(config.num_items, config.num_workers);
  // Seed the published snapshot so refresh=false works from the first
  // request (an empty consensus, shared — never copied — by every poll).
  CPA_ASSIGN_OR_RETURN(SharedSnapshot seeded, session->engine->Snapshot());
  session->Publish(std::move(seeded));
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::FailedPrecondition(
        StrFormat("session limit reached (%zu open, max_sessions=%zu)",
                  sessions_.size(), options_.max_sessions));
  }
  if (session_id.empty()) {
    do {
      session_id = StrFormat("s%zu", next_id_++);
    } while (sessions_.count(session_id) > 0);
  } else if (sessions_.count(session_id) > 0) {
    return Status::InvalidArgument(
        StrFormat("session id '%s' is already open", session_id.c_str()));
  }
  sessions_.emplace(session_id, std::move(session));
  return session_id;
}

Result<ObserveAck> SessionManager::Observe(std::string_view session_id,
                                           std::span<const Answer> answers) {
  std::shared_ptr<Session> session = Find(session_id);
  if (session == nullptr) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->closed) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  if (session->engine->finalized()) {
    return Status::FailedPrecondition(
        StrFormat("session '%s' is finalized; it accepts no more answers",
                  std::string(session_id).c_str()));
  }
  // Validate the whole batch before touching the stream, so a rejected
  // request leaves the session exactly as it was.
  std::set<std::pair<ItemId, WorkerId>> cells;
  for (const Answer& answer : answers) {
    if (answer.item >= session->stream.num_items() ||
        answer.worker >= session->stream.num_workers()) {
      return Status::OutOfRange(StrFormat(
          "answer (item %u, worker %u) outside the session's %zu x %zu stream",
          answer.item, answer.worker, session->stream.num_items(),
          session->stream.num_workers()));
    }
    if (answer.labels.empty()) {
      return Status::InvalidArgument(StrFormat(
          "answer (item %u, worker %u) has an empty label set ('no answer' "
          "is absence, not the empty set)",
          answer.item, answer.worker));
    }
    // The kernels index fixed-width C arrays by label id; wire input must
    // not reach them with labels outside the session's universe.
    for (LabelId label : answer.labels) {
      if (label >= session->config.num_labels) {
        return Status::OutOfRange(StrFormat(
            "answer (item %u, worker %u) carries label %u outside the "
            "session's %zu-label universe",
            answer.item, answer.worker, label, session->config.num_labels));
      }
    }
    if (!cells.insert({answer.item, answer.worker}).second ||
        session->stream.HasAnswer(answer.item, answer.worker)) {
      return Status::InvalidArgument(
          StrFormat("duplicate answer for (item %u, worker %u)", answer.item,
                    answer.worker));
    }
  }
  std::vector<std::size_t> indices;
  indices.reserve(answers.size());
  for (const Answer& answer : answers) {
    indices.push_back(session->stream.num_answers());
    CPA_RETURN_NOT_OK(
        session->stream.Add(answer.item, answer.worker, answer.labels));
  }
  CPA_RETURN_NOT_OK(session->engine->Observe({&session->stream, indices}));
  ObserveAck ack;
  ack.batches_seen = session->engine->batches_seen();
  ack.answers_seen = session->engine->answers_seen();
  ack.delta = session->Delta();
  session->batches_seen.store(ack.batches_seen, std::memory_order_relaxed);
  session->answers_seen.store(ack.answers_seen, std::memory_order_relaxed);
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  return ack;
}

Result<SharedSnapshot> SessionManager::Snapshot(std::string_view session_id,
                                                bool refresh) {
  std::shared_ptr<Session> session = Find(session_id);
  if (session == nullptr) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  if (!refresh) {
    // Pure poll: one pointer copy under the publish mutex — never the
    // engine mutex, never a prediction copy; every poller shares the same
    // immutable body.
    return session->LoadPublished();
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->closed) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  CPA_ASSIGN_OR_RETURN(SharedSnapshot snapshot, session->engine->Snapshot());
  session->Publish(snapshot);
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  return snapshot;
}

Result<SharedSnapshot> SessionManager::Finalize(std::string_view session_id) {
  std::shared_ptr<Session> session = Find(session_id);
  if (session == nullptr) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->closed) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  CPA_ASSIGN_OR_RETURN(SharedSnapshot snapshot, session->engine->Finalize());
  session->Publish(snapshot);
  session->finalized.store(true, std::memory_order_relaxed);
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  return snapshot;
}

Result<std::string> SessionManager::Checkpoint(std::string_view session_id) {
  std::shared_ptr<Session> session = Find(session_id);
  if (session == nullptr) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->closed) {
    return Status::NotFound(
        StrFormat("unknown session '%s'", std::string(session_id).c_str()));
  }
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);
  // Serialize the engine first: an engine without state hooks fails here
  // and the checkpoint reports it before any bytes are produced.
  CPA_ASSIGN_OR_RETURN(const std::string engine_state,
                       session->engine->SaveState());
  CheckpointWriter writer;
  writer.WriteU32(kSessionCheckpointMagic);
  writer.WriteU16(kSessionCheckpointVersion);
  writer.WriteString(session_id);
  writer.WriteString(session->config.ToJson().DumpCompact());
  writer.WriteU64(session->stream.num_items());
  writer.WriteU64(session->stream.num_workers());
  writer.WriteU64(session->stream.num_answers());
  for (const Answer& answer : session->stream.answers()) {
    writer.WriteU32(answer.item);
    writer.WriteU32(answer.worker);
    writer.WriteLabelSet(answer.labels);
  }
  const SharedSnapshot published = session->LoadPublished();
  writer.WriteBool(published != nullptr);
  if (published != nullptr) WriteConsensusSnapshot(writer, *published);
  writer.WriteU64(
      session->delta_changed_items.load(std::memory_order_relaxed));
  writer.WriteString(engine_state);
  return writer.Take();
}

Result<RestoreAck> SessionManager::Restore(std::string_view state,
                                           std::string session_id) {
  CheckpointReader reader(state);
  CPA_ASSIGN_OR_RETURN(const std::uint32_t magic, reader.ReadU32());
  if (magic != kSessionCheckpointMagic) {
    return Status::InvalidArgument("not a session checkpoint (bad magic)");
  }
  CPA_ASSIGN_OR_RETURN(const std::uint16_t version, reader.ReadU16());
  if (version != kSessionCheckpointVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported session checkpoint version %u",
                  static_cast<unsigned>(version)));
  }
  CPA_ASSIGN_OR_RETURN(const std::string saved_id, reader.ReadString());
  CPA_ASSIGN_OR_RETURN(const std::string config_json, reader.ReadString());
  CPA_ASSIGN_OR_RETURN(const JsonValue config_value,
                       JsonValue::Parse(config_json));
  CPA_ASSIGN_OR_RETURN(const EngineConfig config,
                       EngineConfig::FromJson(config_value));
  CPA_ASSIGN_OR_RETURN(const std::size_t num_items, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(const std::size_t num_workers, reader.ReadSize());
  if (num_items != config.num_items || num_workers != config.num_workers) {
    return Status::InvalidArgument(
        "checkpoint stream dims do not match its config");
  }
  CPA_ASSIGN_OR_RETURN(const std::size_t num_answers, reader.ReadSize());
  // Each serialized answer is at least item + worker + label count bytes.
  if (num_answers > reader.remaining() / 12) {
    return Status::InvalidArgument("checkpoint answer count exceeds payload");
  }
  if (session_id.empty()) session_id = saved_id;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() >= options_.max_sessions) {
      return Status::FailedPrecondition(
          StrFormat("session limit reached (%zu open, max_sessions=%zu)",
                    sessions_.size(), options_.max_sessions));
    }
    if (!session_id.empty() && sessions_.count(session_id) > 0) {
      return Status::InvalidArgument(
          StrFormat("session id '%s' is already open", session_id.c_str()));
    }
  }

  auto session = std::make_shared<Session>();
  session->config = config;
  session->config.num_threads = 1;
  session->config.pool = nullptr;
  if (scheduler_ != nullptr) {
    session->lane = scheduler_->CreateLane();
    session->config.pool = session->lane.get();
  }
  CPA_ASSIGN_OR_RETURN(session->engine,
                       EngineRegistry::Global().Open(session->config));
  session->stream = AnswerMatrix(config.num_items, config.num_workers);
  for (std::size_t k = 0; k < num_answers; ++k) {
    CPA_ASSIGN_OR_RETURN(const std::uint32_t item, reader.ReadU32());
    CPA_ASSIGN_OR_RETURN(const std::uint32_t worker, reader.ReadU32());
    CPA_ASSIGN_OR_RETURN(const LabelSet labels, reader.ReadLabelSet());
    CPA_RETURN_NOT_OK(session->stream.Add(item, worker, labels));
  }
  CPA_ASSIGN_OR_RETURN(const bool has_published, reader.ReadBool());
  SharedSnapshot published;
  if (has_published) {
    CPA_ASSIGN_OR_RETURN(ConsensusSnapshot snapshot,
                         ReadConsensusSnapshot(reader));
    published = std::make_shared<const ConsensusSnapshot>(std::move(snapshot));
  }
  CPA_ASSIGN_OR_RETURN(const std::size_t delta_changed, reader.ReadSize());
  CPA_ASSIGN_OR_RETURN(const std::string engine_state, reader.ReadString());
  CPA_RETURN_NOT_OK(reader.ExpectEnd());
  CPA_RETURN_NOT_OK(
      session->engine->RestoreState(engine_state, &session->stream));
  // Re-publish the checkpointed snapshot verbatim. Seeding through
  // `engine->Snapshot()` (as Open does) would run a prediction the
  // uninterrupted session never ran — for CPA-SVI that mutates the model
  // (GlobalRefresh) and would break restore-then-continue bit-identity.
  if (published != nullptr) session->Publish(std::move(published));
  session->delta_changed_items.store(delta_changed, std::memory_order_relaxed);
  RestoreAck ack;
  ack.batches_seen = session->engine->batches_seen();
  ack.answers_seen = session->engine->answers_seen();
  session->batches_seen.store(ack.batches_seen, std::memory_order_relaxed);
  session->answers_seen.store(ack.answers_seen, std::memory_order_relaxed);
  session->finalized.store(session->engine->finalized(),
                           std::memory_order_relaxed);
  session->last_touch.store(NowSeconds(), std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::FailedPrecondition(
        StrFormat("session limit reached (%zu open, max_sessions=%zu)",
                  sessions_.size(), options_.max_sessions));
  }
  if (session_id.empty()) {
    do {
      session_id = StrFormat("s%zu", next_id_++);
    } while (sessions_.count(session_id) > 0);
  } else if (sessions_.count(session_id) > 0) {
    return Status::InvalidArgument(
        StrFormat("session id '%s' is already open", session_id.c_str()));
  }
  ack.session_id = session_id;
  sessions_.emplace(std::move(session_id), std::move(session));
  return ack;
}

Status SessionManager::Close(std::string_view session_id) {
  std::shared_ptr<Session> session;  // destroyed outside the map lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound(
          StrFormat("unknown session '%s'", std::string(session_id).c_str()));
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  return Status::OK();
}

std::size_t SessionManager::ExpireIdle(double idle_seconds) {
  const double now = NowSeconds();
  std::vector<std::shared_ptr<Session>> expired;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& session = *it->second;
      const double idle =
          now - session.last_touch.load(std::memory_order_relaxed);
      // try_lock skips sessions with an operation in flight; holding the
      // map lock means no new operation can look the session up while we
      // decide. Idleness is re-checked and `closed` is set under the
      // session mutex, so a caller that raced past Find() but locks after
      // us sees the flag instead of operating on a removed session.
      bool expire_it = false;
      if (idle > idle_seconds && session.mutex.try_lock()) {
        if (now - session.last_touch.load(std::memory_order_relaxed) >
            idle_seconds) {
          session.closed = true;
          expire_it = true;
        }
        session.mutex.unlock();
      }
      if (expire_it) {
        expired.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return expired.size();
}

std::vector<SessionInfo> SessionManager::List() const {
  std::vector<SessionInfo> infos;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  infos.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    SessionInfo info;
    info.id = id;
    info.method = session->config.method;
    info.batches_seen = session->batches_seen.load(std::memory_order_relaxed);
    info.answers_seen = session->answers_seen.load(std::memory_order_relaxed);
    info.finalized = session->finalized.load(std::memory_order_relaxed);
    info.idle_seconds =
        std::max(0.0, now - session->last_touch.load(std::memory_order_relaxed));
    infos.push_back(std::move(info));
  }
  return infos;
}

std::size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace cpa
