#ifndef CPA_SIMULATION_DATASET_FACTORY_H_
#define CPA_SIMULATION_DATASET_FACTORY_H_

/// \file dataset_factory.h
/// \brief Factories for the paper's evaluation datasets.
///
/// The paper evaluates on five crowdsourced datasets (Table 3) that are not
/// publicly available; we substitute calibrated
/// simulations that match the published statistics (#items, #labels,
/// #workers, #answers) and characteristics (§5.1: answer-distribution
/// skew, task difficulty, label-correlation strength). A separate factory
/// builds the large-scale synthetic datasets used by the scalability
/// experiments (Fig 7).

#include <cstddef>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "simulation/truth_generator.h"
#include "simulation/worker_profile.h"
#include "util/status.h"

namespace cpa {

/// \brief The five evaluation datasets of Table 3.
enum class PaperDatasetId {
  kImage,   ///< NUS-WIDE image tagging
  kTopic,   ///< TREC-2011 microblog topic annotation
  kAspect,  ///< restaurant-review aspect extraction
  kEntity,  ///< T-NER tweet entity extraction
  kMovie,   ///< IMDB movie-genre tagging
};

/// All five ids, in Table 3 order.
std::vector<PaperDatasetId> AllPaperDatasets();

/// Stable name ("image", "topic", "aspect", "entity", "movie").
std::string_view PaperDatasetName(PaperDatasetId id);

/// \brief Declarative specification of one dataset (Table 3 + §5.1).
struct PaperDatasetSpec {
  PaperDatasetId id = PaperDatasetId::kImage;
  std::size_t items = 0;    ///< questions posted (answered items)
  std::size_t workers = 0;  ///< worker pool size
  std::size_t labels = 0;   ///< label universe C
  std::size_t answers = 0;  ///< total collected answers

  double mean_labels_per_item = 3.0;
  std::size_t max_labels_per_item = 10;
  double correlation = 0.7;       ///< label-correlation strength
  std::size_t latent_clusters = 8;
  bool skewed_workers = false;    ///< answer-distribution skew
  double difficulty = 0.0;        ///< task difficulty (skill penalty)
  std::size_t candidate_set_size = 20;

  /// Honest workers' attention budget (crowd_simulator.h); answers are
  /// partially complete because workers stop after a few labels.
  double attention_mean = 3.0;

  /// The published spec of a dataset.
  static PaperDatasetSpec For(PaperDatasetId id);
};

/// \brief Options common to all factories.
struct FactoryOptions {
  std::uint64_t seed = 20180417;  ///< deterministic by default

  /// Uniform scale factor on items / workers / answers, for fast tests and
  /// quick bench runs (redundancy is preserved). 1.0 = paper size.
  double scale = 1.0;

  /// Worker-type mix (paper simulation default unless overridden).
  PopulationMix mix = PopulationMix::PaperSimulationDefault();
};

/// Builds one of the five paper datasets.
Result<Dataset> MakePaperDataset(PaperDatasetId id, const FactoryOptions& options = {});

/// Builds a dataset from an explicit spec (used by tests and ablations).
Result<Dataset> MakeDatasetFromSpec(const PaperDatasetSpec& spec,
                                    const FactoryOptions& options);

/// \brief Large-scale synthetic dataset for the runtime experiments
/// (§5.1 "Large-Scale Simulation", Fig 7): `num_items` items, `num_workers`
/// workers, `num_labels` labels, `workers_per_item` answers per item.
Result<Dataset> MakeScalabilityDataset(std::size_t num_items, std::size_t num_workers,
                                       std::size_t num_labels,
                                       double workers_per_item,
                                       const FactoryOptions& options = {});

}  // namespace cpa

#endif  // CPA_SIMULATION_DATASET_FACTORY_H_
