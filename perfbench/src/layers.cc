#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/cpa.h"
#include "core/prediction.h"
#include "core/svi.h"
#include "core/sweep/answer_view.h"
#include "core/sweep/simd.h"
#include "core/sweep/sweep_kernels.h"
#include "core/sweep/sweep_scheduler.h"
#include "engine/engine_registry.h"
#include "in_process.h"
#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/frame_handler.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// Repetitions of each timed probe; the metric is their median.
constexpr std::size_t kRepeats = 3;

/// Median wall milliseconds of `kRepeats` calls of `body`.
template <typename Body>
double MedianMs(Body&& body) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    const double start = NowMs();
    body();
    ms.push_back(NowMs() - start);
  }
  return Median(ms);
}

/// Nanoseconds per call of `call` on `n`-element spans, as the median over
/// 15 batches of calls that each touch ~200k elements.
template <typename Call>
double NanosPerCall(std::size_t n, Call&& call) {
  const std::size_t calls = std::max<std::size_t>(1, 200'000 / std::max<std::size_t>(1, n));
  std::vector<double> per_call;
  for (std::size_t batch = 0; batch < 15; ++batch) {
    const double start = NowMs();
    for (std::size_t c = 0; c < calls; ++c) call();
    per_call.push_back((NowMs() - start) * 1e6 / static_cast<double>(calls));
  }
  return Median(per_call);
}

std::vector<double> RandomVector(std::size_t n, cpa::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextDouble() * 4.0 - 2.0;
  return v;
}

/// `pool` for a thread count: nullptr (inline) at 1.
std::unique_ptr<cpa::ThreadPool> PoolFor(std::size_t threads) {
  return threads > 1 ? std::make_unique<cpa::ThreadPool>(threads) : nullptr;
}

}  // namespace

void ProbeOfflineLayers(const cpa::Dataset& scalability, std::uint64_t seed,
                        Metrics& metrics, RunResult& result) {
  cpa::CpaOptions cpa_options = cpa::EngineConfig::ForDataset("CPA", scalability).cpa;
  cpa_options.max_iterations = 10;
  const cpa::AnswerMatrix& answers = scalability.answers;
  const std::size_t C = scalability.num_labels;

  // --- core: one solve per thread count; the fit share is the solve minus
  // its prediction phase, which is timed on its own below.
  cpa::CpaModel fitted;
  for (std::size_t threads : {std::size_t{1}, kSweepThreads}) {
    auto pool = PoolFor(threads);
    const double start = NowMs();
    auto solved =
        cpa::SolveCpaOffline(answers, C, cpa_options, cpa::CpaVariant::kFull, pool.get());
    const double wall = NowMs() - start;
    result.CountOp(solved.ok() ? "" : "solve: " + solved.status().ToString());
    if (!solved.ok()) return;
    const std::string t = cpa::StrFormat("t%zu", threads);
    metrics.Set("core.solve_" + t + "_ms",
                wall - solved.value().stats.prediction_seconds * 1e3, "ms");
    metrics.Set("core.vi.iterations", static_cast<double>(solved.value().stats.iterations),
                "count");
    fitted = std::move(solved.value().model);
  }
  for (std::size_t threads : {std::size_t{1}, kSweepThreads}) {
    auto pool = PoolFor(threads);
    const double ms = MedianMs([&] {
      auto predicted = cpa::PredictLabels(fitted, answers, pool.get());
      result.CountOp(predicted.ok() ? "" : "predict: " + predicted.status().ToString());
    });
    metrics.Set(cpa::StrFormat("core.predict_t%zu_ms", threads), ms, "ms");
  }

  // --- kernel: the simd table at the fitted model's λ-bank (T×M×C) and
  // T-row sizes.
  const std::size_t T = fitted.num_clusters();
  const std::size_t bank = T * fitted.num_communities() * C;
  cpa::Rng rng(seed);
  const cpa::simd::Kernels& kernels = cpa::simd::Active();
  std::vector<double> into = RandomVector(bank, rng), from = RandomVector(bank, rng);
  std::vector<double> row_a = RandomVector(T, rng), row_b = RandomVector(T, rng);
  volatile double sink = 0.0;
  metrics.Set("kernel.accumulate_ns", NanosPerCall(bank, [&] {
                kernels.accumulate(into.data(), from.data(), bank);
              }),
              "ns");
  metrics.Set("kernel.axpy_ns", NanosPerCall(T, [&] {
                kernels.axpy(1e-3, row_a.data(), row_b.data(), T);
              }),
              "ns");
  metrics.Set("kernel.dot_ns", NanosPerCall(T, [&] {
                sink = sink + kernels.dot(row_a.data(), row_b.data(), T);
              }),
              "ns");
  metrics.Set("kernel.log_sum_exp_ns", NanosPerCall(T, [&] {
                sink = sink + kernels.log_sum_exp(row_a.data(), T);
              }),
              "ns");
  std::vector<double> logits = RandomVector(T, rng);
  std::vector<double> softmax_row(T);
  metrics.Set("kernel.softmax_floored_ns", NanosPerCall(T, [&] {
                std::copy(logits.begin(), logits.end(), softmax_row.begin());
                sink = sink + kernels.softmax_floored(softmax_row.data(), T,
                                                      cpa::sweep::kSoftmaxFloorNats);
              }),
              "ns");

  // --- sweep phases on a copy of the fitted model.
  const cpa::AnswerView view(answers);
  cpa::CpaModel model = fitted;
  const cpa::CpaOptions& options = model.options();
  for (std::size_t threads : {std::size_t{1}, kSweepThreads}) {
    auto pool = PoolFor(threads);
    const cpa::SweepScheduler scheduler(pool.get());
    cpa::sweep::ClusterActivity activity;
    cpa::sweep::BuildClusterActivity(model.phi, scheduler, activity);
    const auto phase = [&](const char* name, auto&& body) {
      metrics.Set(cpa::StrFormat("sweep.%s_t%zu_ms", name, threads), MedianMs(body), "ms");
    };
    phase("eq2_worker", [&] {
      scheduler.ParallelFor(
          model.num_workers(),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t u = begin; u < end; ++u) {
              const auto w = static_cast<cpa::WorkerId>(u);
              cpa::sweep::UpdateWorkerResponsibility(model, view, w, view.AnswersOfWorker(w),
                                                     &activity);
            }
          },
          8);
    });
    phase("eq3_item", [&] {
      scheduler.ParallelFor(
          model.num_items(),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              const auto item = static_cast<cpa::ItemId>(i);
              cpa::sweep::UpdateItemResponsibility(model, view, item,
                                                   view.AnswersOfItem(item));
            }
          },
          8);
    });
    phase("activity", [&] { cpa::sweep::BuildClusterActivity(model.phi, scheduler, activity); });
    phase("sticks", [&] {
      cpa::sweep::UpdateSticks(model.rho, model.kappa, options.alpha, scheduler);
      cpa::sweep::UpdateSticks(model.upsilon, model.phi, options.epsilon, scheduler);
    });
    phase("lambda", [&] { cpa::sweep::UpdateLambda(model, view, activity, scheduler); });
    phase("label_evidence", [&] {
      cpa::sweep::UpdateLabelEvidence(model, view, nullptr, nullptr, scheduler);
    });
    phase("reliability", [&] {
      const auto weights = cpa::sweep::ComputeWorkerReliability(model, view, scheduler);
      sink = sink + weights.front();
    });
    phase("zeta", [&] { cpa::sweep::UpdateZeta(model, activity, scheduler); });
    phase("theta", [&] { cpa::sweep::UpdateThetaChannel(model, activity, scheduler); });
  }
}

void ProbeOnlineLayers(const cpa::Dataset& scalability, std::uint64_t seed,
                       Metrics& metrics, RunResult& result) {
  cpa::EngineConfig config = cpa::EngineConfig::ForDataset("CPA-SVI", scalability);
  config.cpa.max_iterations = 10;
  config.num_threads = kSweepThreads;
  config.svi.workers_per_batch = 100;
  cpa::Rng rng(seed);
  const cpa::BatchPlan plan = cpa::MakeWorkerBatches(scalability.answers, 100, rng);
  const cpa::AnswerMatrix& answers = scalability.answers;
  const auto refresh_after = [&](std::size_t b) {
    return (b + 1) % 10 == 0 || b + 1 == plan.batches.size();
  };

  // --- engine set-up time.
  std::vector<double> open_ms;
  for (std::size_t r = 0; r < 5; ++r) {
    const double start = NowMs();
    auto engine = cpa::EngineRegistry::Global().Open(config);
    open_ms.push_back(NowMs() - start);
    result.CountOp(engine.ok() ? "" : "open: " + engine.status().ToString());
  }
  metrics.Set("engine.open_ms", Median(open_ms), "ms");

  // --- SVI and engine: the first batches of the online-stream plan (three
  // refresh points) through `CpaOnline` directly and through a registry
  // session, batch by batch in turn so both see equally warm caches. Both
  // follow the same model trajectory, so per-batch differences isolate the
  // engine's own cost.
  const std::size_t replayed = std::min<std::size_t>(30, plan.batches.size());
  cpa::ThreadPool pool(kSweepThreads);
  auto created = cpa::CpaOnline::Create(scalability.num_items(), scalability.num_workers(),
                                        scalability.num_labels, config.cpa, config.svi,
                                        &pool);
  result.CountOp(created.ok() ? "" : "svi create: " + created.status().ToString());
  auto opened = cpa::EngineRegistry::Global().Open(config);
  result.CountOp(opened.ok() ? "" : "open: " + opened.status().ToString());
  if (!created.ok() || !opened.ok()) return;
  cpa::CpaOnline& online = created.value();
  cpa::ConsensusEngine& engine = *opened.value();
  std::vector<double> observe_ms, overhead_ms, predict_ms, instantiate_ms, refresh_ms;
  std::vector<std::size_t> observed;
  for (std::size_t b = 0; b < replayed; ++b) {
    const auto& batch = plan.batches[b];
    double start = NowMs();
    cpa::Status status = online.ObserveBatch(answers, batch);
    const double svi_ms = NowMs() - start;
    result.CountOp(status.ok() ? "" : "svi observe: " + status.ToString());
    start = NowMs();
    status = engine.Observe({&answers, batch});
    const double engine_ms = NowMs() - start;
    result.CountOp(status.ok() ? "" : "engine observe: " + status.ToString());
    observe_ms.push_back(svi_ms);
    overhead_ms.push_back(engine_ms - svi_ms);
    observed.insert(observed.end(), batch.begin(), batch.end());
    if (!refresh_after(b)) continue;
    start = NowMs();
    auto predicted = online.Predict(answers);
    const double predict = NowMs() - start;
    result.CountOp(predicted.ok() ? "" : "svi predict: " + predicted.status().ToString());
    const cpa::AnswerMatrix seen = answers.Subset(observed);
    start = NowMs();
    auto instantiated = cpa::PredictLabels(online.model(), seen, &pool);
    const double instantiate = NowMs() - start;
    result.CountOp(instantiated.ok() ? "" : "instantiate: " + instantiated.status().ToString());
    predict_ms.push_back(predict);
    instantiate_ms.push_back(instantiate);
    refresh_ms.push_back(predict - instantiate);
    const auto snapshot = engine.Snapshot();
    result.CountOp(snapshot.ok() ? "" : "engine snapshot: " + snapshot.status().ToString());
  }
  metrics.Set("core.svi.observe_batch_p50_ms", Median(observe_ms), "ms");
  metrics.Set("core.svi.predict_p50_ms", Median(predict_ms), "ms");
  metrics.Set("core.svi.instantiate_p50_ms", Median(instantiate_ms), "ms");
  metrics.Set("core.svi.global_refresh_p50_ms", Median(refresh_ms), "ms");
  metrics.Set("core.svi.answers_per_batch",
              static_cast<double>(plan.TotalAnswers()) /
                  static_cast<double>(plan.batches.size()),
              "count");
  metrics.Set("engine.observe_overhead_p50_ms", Median(overhead_ms), "ms");
  std::vector<double> cached_us;
  for (std::size_t r = 0; r < 1000; ++r) {
    const double start = NowMs();
    const auto snapshot = engine.Snapshot();
    cached_us.push_back((NowMs() - start) * 1e3);
    if (!snapshot.ok()) result.CountOp("cached snapshot: " + snapshot.status().ToString());
  }
  metrics.Set("engine.snapshot_cached_us", Median(cached_us), "us");
}

namespace {

/// The bench-side frame handler: the three calls `HandleFrame` makes for a
/// binary frame, each timed, keyed by op (a snapshot without refresh is a
/// poll).
class TimingFrameHandler final : public cpa::FrameHandler {
 public:
  struct OpSamples {
    std::vector<double> decode_us, handle_ms, encode_us, reply_bytes;
  };

  explicit TimingFrameHandler(cpa::ConsensusServer& server) : server_(server) {}

  cpa::server::Frame HandleFrame(const cpa::server::Frame& frame) override {
    double start = NowMs();
    auto request = cpa::server::DecodeBinaryRequest(frame.payload);
    const double decode = NowMs() - start;
    if (!request.ok()) {
      return {cpa::server::FrameKind::kBinary,
              cpa::server::EncodeBinaryError("", "", request.status())};
    }
    start = NowMs();
    const cpa::server::Response response = server_.Handle(request.value());
    const double handle = NowMs() - start;
    start = NowMs();
    std::string reply = cpa::server::EncodeBinaryResponse(response);
    const double encode = NowMs() - start;
    if (recording_) {
      OpSamples& op = ops_[OpKey(request.value())];
      op.decode_us.push_back(decode * 1e3);
      op.handle_ms.push_back(handle);
      op.encode_us.push_back(encode * 1e3);
      op.reply_bytes.push_back(static_cast<double>(reply.size()));
    }
    return {cpa::server::FrameKind::kBinary, std::move(reply)};
  }

  void set_recording(bool recording) { recording_ = recording; }
  const std::map<std::string, OpSamples>& ops() const { return ops_; }

 private:
  static std::string OpKey(const cpa::server::Request& request) {
    using Op = cpa::server::Request::Op;
    if (request.op == Op::kObserve) return "observe";
    if (request.op == Op::kSnapshot) return request.refresh ? "refresh" : "poll";
    return std::string(cpa::server::OpName(request.op));
  }

  cpa::ConsensusServer& server_;
  bool recording_ = false;
  std::map<std::string, OpSamples> ops_;
};

}  // namespace

HandlerCost ProbeServerLayer(const ServeMixedInputs& inputs, Metrics& metrics,
                             RunResult& result) {
  constexpr std::size_t kWriterSessions = 4;
  constexpr std::size_t kPollsPerOp = 4;
  cpa::ConsensusServerOptions server_options;
  server_options.sessions.num_threads = kSweepThreads;
  cpa::ConsensusServer server(server_options);
  TimingFrameHandler handler(server);
  const auto binary = [&](const std::string& payload, const char* what) {
    const cpa::server::Frame reply =
        handler.HandleFrame({cpa::server::FrameKind::kBinary, payload});
    auto decoded = cpa::server::DecodeBinaryResponse(reply.payload);
    result.CountOp(decoded.ok() && decoded.value().ok
                       ? ""
                       : std::string(what) + ": in-process server replied with an error");
  };
  const auto json = [&](const std::string& line, const char* what) {
    const std::string reply = server.HandleLine(line);
    result.CountOp(reply.find("\"ok\":true") != std::string::npos
                       ? ""
                       : std::string(what) + ": " + reply);
  };

  const std::string catalog = "catalog-0";
  json(OpenRequest(catalog, inputs.config), "open");
  for (const auto& batch : ArrivalPlan(inputs, 0).batches) {
    binary(cpa::server::EncodeObserveRequest(catalog, BatchAnswers(inputs.dataset, batch)),
           "observe");
  }
  binary(cpa::server::EncodeSnapshotRequest(catalog, true, true), "refresh");

  const std::string poll = cpa::server::EncodeSnapshotRequest(catalog, false, true);
  handler.set_recording(true);
  for (std::size_t k = 0; k < kWriterSessions; ++k) {
    const std::string id = cpa::StrFormat("w0-%zu", k);
    json(OpenRequest(id, inputs.config), "open");
    for (const auto& batch : ArrivalPlan(inputs, 100 + 2 * k).batches) {
      binary(cpa::server::EncodeObserveRequest(id, BatchAnswers(inputs.dataset, batch)),
             "observe");
      for (std::size_t p = 0; p < kPollsPerOp; ++p) binary(poll, "poll");
      binary(cpa::server::EncodeSnapshotRequest(id, true, true), "refresh");
      for (std::size_t p = 0; p < kPollsPerOp; ++p) binary(poll, "poll");
    }
    binary(cpa::server::EncodeFinalizeRequest(id, true), "finalize");
    json(cpa::StrFormat("{\"op\":\"close\",\"session\":\"%s\"}", id.c_str()), "close");
  }

  HandlerCost cost;
  for (const char* op : {"observe", "refresh", "poll"}) {
    const auto found = handler.ops().find(op);
    if (found == handler.ops().end()) continue;
    const TimingFrameHandler::OpSamples& samples = found->second;
    const double decode_us = Median(samples.decode_us);
    const double handle_ms = Median(samples.handle_ms);
    const double encode_us = Median(samples.encode_us);
    metrics.Set(cpa::StrFormat("server.decode_us.%s", op), decode_us, "us");
    metrics.Set(cpa::StrFormat("server.handle_ms.%s", op), handle_ms, "ms");
    metrics.Set(cpa::StrFormat("server.encode_us.%s", op), encode_us, "us");
    metrics.Set(cpa::StrFormat("server.reply_bytes.%s", op), Median(samples.reply_bytes),
                "bytes");
    const double total_ms = decode_us / 1e3 + handle_ms + encode_us / 1e3;
    (std::string(op) == "observe"   ? cost.observe_ms
     : std::string(op) == "refresh" ? cost.refresh_ms
                                    : cost.poll_ms) = total_ms;
  }
  return cost;
}

void AddTransportMetrics(const ServeMixedOutcome& outcome, const HandlerCost& handler,
                         std::uint64_t ops_attempted, Metrics& metrics) {
  const EndToEndSamples& s = outcome.samples;
  metrics.Set("transport.observe_ms", Median(s.observe_ms) - handler.observe_ms, "ms");
  metrics.Set("transport.refresh_ms", Median(s.refresh_ms) - handler.refresh_ms, "ms");
  metrics.Set("transport.poll_ms", Median(s.poll_ms) - handler.poll_ms, "ms");
  metrics.Set("transport.frames_per_recv", outcome.stats.FramesPerRecv(), "ratio");
  metrics.Set("transport.sends_per_frame", outcome.stats.SendsPerFrame(), "ratio");
  metrics.Set("transport.partial_writes", static_cast<double>(outcome.stats.partial_writes),
              "count");
  metrics.Set("transport.wouldblock_events",
              static_cast<double>(outcome.stats.wouldblock_events), "count");
  metrics.Set("transport.framing_errors", static_cast<double>(outcome.stats.framing_errors),
              "count");
  metrics.Set("client.poll_p99_ms", TailPercentile(s.poll_ms, 99.0).value, "ms");
  metrics.Set("client.poll_late_p99_ms", TailPercentile(outcome.poll_late_ms, 99.0).value,
              "ms");
  metrics.Set("client.ops_attempted", static_cast<double>(ops_attempted), "count");
  metrics.Set("client.writer_sessions", static_cast<double>(outcome.writer_sessions),
              "count");
}

}  // namespace perfbench
