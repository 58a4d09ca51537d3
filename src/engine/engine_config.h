#ifndef CPA_ENGINE_ENGINE_CONFIG_H_
#define CPA_ENGINE_ENGINE_CONFIG_H_

/// \file engine_config.h
/// \brief One configuration for every consensus method.
///
/// An `EngineConfig` is a registry key (`method`) plus the stream
/// dimensions and the typed option structs of each method family; engines
/// read only the structs they care about (MV reads `majority`, the CPA
/// variants read `cpa`, CPA-SVI reads `cpa` + `svi`, ...). Configs
/// round-trip through the `util/json.h` document (the same JSON dialect the
/// `BENCH_*.json` reports use) and can be overridden from `util/flags`
/// command lines, so bench binaries and services construct sessions from
/// one description.

#include <cstddef>
#include <string>

#include "baselines/cbcc.h"
#include "baselines/dawid_skene.h"
#include "baselines/majority_vote.h"
#include "core/cpa_options.h"
#include "core/svi.h"
#include "data/dataset.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpa {

/// \brief Everything needed to open a `ConsensusEngine` session.
struct EngineConfig {
  /// Registry name: "MV", "EM", "cBCC", "CPA", "CPA-NoZ", "CPA-NoL",
  /// "CPA-SVI", or any externally registered method.
  std::string method = "CPA";

  /// Stream dimensions (upper bounds; unseen entities keep initial state).
  std::size_t num_items = 0;
  std::size_t num_workers = 0;
  std::size_t num_labels = 0;

  /// Typed per-family options. Engines ignore the structs of other
  /// families, so one config can describe any method.
  CpaOptions cpa;
  SviOptions svi;
  MajorityVoteOptions majority;
  DawidSkeneOptions em;
  CbccOptions cbcc;

  /// Threads for the parallel sweep phases (core/sweep/). 1 (default) runs
  /// sequentially; engines whose method parallelises construct and own a
  /// `ThreadPool` of this size when no runtime `pool` override is given.
  /// Results are bit-identical for any value (sweep_scheduler.h).
  std::size_t num_threads = 1;

  /// Runtime executor override for parallel sweep phases; takes precedence
  /// over `num_threads` when non-null (the session will not own it). This
  /// is how the multi-session server injects its shared pool: each session
  /// gets a `ServerScheduler` lane here instead of owning a pool.
  /// Runtime-only, never serialized.
  Executor* pool = nullptr;

  /// Config sized for a concrete dataset: dimensions from the dataset,
  /// `cpa` from `CpaOptions::Recommended`.
  static EngineConfig ForDataset(std::string method, const Dataset& dataset);

  /// Structural validation (non-empty method, positive label universe,
  /// option-struct invariants of the named family are checked by `Open`).
  Status Validate() const;

  /// Serializes `method`, dimensions, and the tunable fields of each
  /// option struct (untouched knobs keep their defaults on parse, so a
  /// partial document is a valid config).
  JsonValue ToJson() const;
  static Result<EngineConfig> FromJson(const JsonValue& json);

  /// Applies `--method`, `--num-items/--num-workers/--num-labels`,
  /// `--cpa-iterations`, `--max-communities`, `--max-clusters`,
  /// `--workers-per-batch`, `--mv-threshold` on top of `*this` (flags only
  /// override what they name).
  Result<EngineConfig> WithFlags(const Flags& flags) const;
};

}  // namespace cpa

#endif  // CPA_ENGINE_ENGINE_CONFIG_H_
