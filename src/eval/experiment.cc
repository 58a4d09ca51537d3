#include "eval/experiment.h"

#include <memory>

#include "engine/engine_registry.h"
#include "util/stopwatch.h"

namespace cpa {
namespace {

Status RequireFreshSession(const ConsensusEngine& engine, const Dataset& dataset) {
  if (!dataset.has_ground_truth()) {
    return Status::FailedPrecondition("experiment dataset needs ground truth");
  }
  if (engine.finalized() || engine.answers_seen() > 0) {
    return Status::FailedPrecondition(
        "experiment engines must be freshly opened sessions");
  }
  return Status::OK();
}

}  // namespace

Result<ExperimentResult> RunExperiment(Aggregator& aggregator, const Dataset& dataset) {
  if (!dataset.has_ground_truth()) {
    return Status::FailedPrecondition("experiment dataset needs ground truth");
  }
  Stopwatch stopwatch;
  CPA_ASSIGN_OR_RETURN(AggregationResult result,
                       aggregator.Aggregate(dataset.answers, dataset.num_labels));
  ExperimentResult experiment;
  experiment.seconds = stopwatch.ElapsedSeconds();
  experiment.iterations = result.stats.iterations;
  experiment.metrics = ComputeSetMetrics(result.predictions, dataset.ground_truth);
  return experiment;
}

Result<ExperimentResult> RunExperiment(ConsensusEngine& engine, const Dataset& dataset) {
  CPA_RETURN_NOT_OK(RequireFreshSession(engine, dataset));
  Stopwatch stopwatch;
  CPA_RETURN_NOT_OK(ObserveAll(engine, dataset.answers));
  CPA_ASSIGN_OR_RETURN(SharedSnapshot snapshot, engine.Finalize());
  ExperimentResult experiment;
  experiment.seconds = stopwatch.ElapsedSeconds();
  experiment.iterations = snapshot->fit_stats.iterations;
  experiment.prediction_seconds = snapshot->fit_stats.prediction_seconds;
  experiment.metrics = ComputeSetMetrics(snapshot->predictions, dataset.ground_truth);
  return experiment;
}

Result<StreamingExperimentResult> RunStreamingExperiment(ConsensusEngine& engine,
                                                         const Dataset& dataset,
                                                         const BatchPlan& plan,
                                                         bool score_each_batch) {
  CPA_RETURN_NOT_OK(RequireFreshSession(engine, dataset));
  StreamingExperimentResult result;
  Stopwatch stopwatch;
  for (const std::vector<std::size_t>& batch : plan.batches) {
    CPA_RETURN_NOT_OK(engine.Observe({&dataset.answers, batch}));
    if (!score_each_batch) continue;
    CPA_ASSIGN_OR_RETURN(SharedSnapshot snapshot, engine.Snapshot());
    StreamingStepResult step;
    step.metrics = ComputeSetMetrics(snapshot->predictions, dataset.ground_truth);
    step.seconds = stopwatch.ElapsedSeconds();
    step.batches_seen = snapshot->batches_seen;
    step.answers_seen = snapshot->answers_seen;
    step.learning_rate = snapshot->learning_rate;
    result.steps.push_back(std::move(step));
  }
  CPA_ASSIGN_OR_RETURN(SharedSnapshot final_snapshot, engine.Finalize());
  result.final_result.seconds = stopwatch.ElapsedSeconds();
  result.final_result.iterations = final_snapshot->fit_stats.iterations;
  result.final_result.prediction_seconds =
      final_snapshot->fit_stats.prediction_seconds;
  result.final_result.metrics =
      ComputeSetMetrics(final_snapshot->predictions, dataset.ground_truth);
  return result;
}

Result<ExperimentResult> RunExperiment(const EngineConfig& config,
                                       const Dataset& dataset) {
  CPA_ASSIGN_OR_RETURN(std::unique_ptr<ConsensusEngine> engine,
                       EngineRegistry::Global().Open(config));
  return RunExperiment(*engine, dataset);
}

Result<StreamingExperimentResult> RunStreamingExperiment(const EngineConfig& config,
                                                         const Dataset& dataset,
                                                         const BatchPlan& plan,
                                                         bool score_each_batch) {
  CPA_ASSIGN_OR_RETURN(std::unique_ptr<ConsensusEngine> engine,
                       EngineRegistry::Global().Open(config));
  return RunStreamingExperiment(*engine, dataset, plan, score_each_batch);
}

std::vector<std::string> PaperMethodNames() { return {"MV", "EM", "cBCC", "CPA"}; }

}  // namespace cpa
