#include "engine/engine_config.h"

#include <cmath>

#include "util/string_utils.h"

namespace cpa {
namespace {

// FromJson helpers: absent keys keep the caller's default; present keys
// must carry the right JSON kind.
Status ReadSize(const JsonValue& object, const char* key, std::size_t* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::OK();
  if (value->kind() != JsonValue::Kind::kNumber || value->number_value() < 0.0 ||
      std::floor(value->number_value()) != value->number_value()) {
    return Status::InvalidArgument(
        StrFormat("config field '%s' must be a non-negative integer", key));
  }
  *out = static_cast<std::size_t>(value->number_value());
  return Status::OK();
}

Status ReadDouble(const JsonValue& object, const char* key, double* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::OK();
  if (value->kind() != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument(
        StrFormat("config field '%s' must be a number", key));
  }
  *out = value->number_value();
  return Status::OK();
}

Status ReadBool(const JsonValue& object, const char* key, bool* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::OK();
  if (value->kind() != JsonValue::Kind::kBool) {
    return Status::InvalidArgument(
        StrFormat("config field '%s' must be a boolean", key));
  }
  *out = value->bool_value();
  return Status::OK();
}

Status ReadString(const JsonValue& object, const char* key, std::string* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::OK();
  if (value->kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument(
        StrFormat("config field '%s' must be a string", key));
  }
  *out = value->string_value();
  return Status::OK();
}

JsonValue Num(double value) { return JsonValue(value); }
JsonValue Num(std::size_t value) { return JsonValue(static_cast<double>(value)); }

}  // namespace

EngineConfig EngineConfig::ForDataset(std::string method, const Dataset& dataset) {
  EngineConfig config;
  config.method = std::move(method);
  config.num_items = dataset.num_items();
  config.num_workers = dataset.num_workers();
  config.num_labels = dataset.num_labels;
  config.cpa = CpaOptions::Recommended(dataset.num_items(), dataset.num_labels);
  return config;
}

Status EngineConfig::Validate() const {
  if (method.empty()) {
    return Status::InvalidArgument("EngineConfig.method must not be empty");
  }
  if (num_labels == 0) {
    return Status::InvalidArgument(
        "EngineConfig.num_labels must be positive (the label universe C)");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument(
        "EngineConfig.num_threads must be positive (1 = sequential)");
  }
  return Status::OK();
}

JsonValue EngineConfig::ToJson() const {
  JsonValue::Object cpa_object;
  cpa_object["max_communities"] = Num(cpa.max_communities);
  cpa_object["max_clusters"] = Num(cpa.max_clusters);
  cpa_object["alpha"] = Num(cpa.alpha);
  cpa_object["epsilon"] = Num(cpa.epsilon);
  cpa_object["lambda0"] = Num(cpa.lambda0);
  cpa_object["zeta0"] = Num(cpa.zeta0);
  cpa_object["max_iterations"] = Num(cpa.max_iterations);
  cpa_object["tolerance"] = Num(cpa.tolerance);
  cpa_object["seed"] = Num(static_cast<double>(cpa.seed));

  JsonValue::Object svi_object;
  svi_object["workers_per_batch"] = Num(svi.workers_per_batch);
  svi_object["forgetting_rate"] = Num(svi.forgetting_rate);
  svi_object["reinforcement_rounds"] = Num(svi.reinforcement_rounds);

  JsonValue::Object majority_object;
  majority_object["threshold"] = Num(majority.threshold);
  majority_object["fallback_to_top_label"] =
      JsonValue(majority.fallback_to_top_label);

  JsonValue::Object em_object;
  em_object["max_iterations"] = Num(em.max_iterations);
  em_object["tolerance"] = Num(em.tolerance);
  em_object["smoothing"] = Num(em.smoothing);
  em_object["threshold"] = Num(em.threshold);
  em_object["use_mislabeling_cost"] = JsonValue(em.use_mislabeling_cost);

  JsonValue::Object cbcc_object;
  cbcc_object["num_communities"] = Num(cbcc.num_communities);
  cbcc_object["max_iterations"] = Num(cbcc.max_iterations);
  cbcc_object["tolerance"] = Num(cbcc.tolerance);
  cbcc_object["threshold"] = Num(cbcc.threshold);

  JsonValue::Object config;
  config["method"] = JsonValue(method);
  config["num_items"] = Num(num_items);
  config["num_workers"] = Num(num_workers);
  config["num_labels"] = Num(num_labels);
  config["num_threads"] = Num(num_threads);
  config["cpa"] = JsonValue(std::move(cpa_object));
  config["svi"] = JsonValue(std::move(svi_object));
  config["majority"] = JsonValue(std::move(majority_object));
  config["em"] = JsonValue(std::move(em_object));
  config["cbcc"] = JsonValue(std::move(cbcc_object));
  return JsonValue(std::move(config));
}

Result<EngineConfig> EngineConfig::FromJson(const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("engine config must be a JSON object");
  }
  EngineConfig config;
  CPA_RETURN_NOT_OK(ReadString(json, "method", &config.method));
  CPA_RETURN_NOT_OK(ReadSize(json, "num_items", &config.num_items));
  CPA_RETURN_NOT_OK(ReadSize(json, "num_workers", &config.num_workers));
  CPA_RETURN_NOT_OK(ReadSize(json, "num_labels", &config.num_labels));
  CPA_RETURN_NOT_OK(ReadSize(json, "num_threads", &config.num_threads));

  if (const JsonValue* cpa_object = json.Find("cpa")) {
    CPA_RETURN_NOT_OK(
        ReadSize(*cpa_object, "max_communities", &config.cpa.max_communities));
    CPA_RETURN_NOT_OK(
        ReadSize(*cpa_object, "max_clusters", &config.cpa.max_clusters));
    CPA_RETURN_NOT_OK(ReadDouble(*cpa_object, "alpha", &config.cpa.alpha));
    CPA_RETURN_NOT_OK(ReadDouble(*cpa_object, "epsilon", &config.cpa.epsilon));
    CPA_RETURN_NOT_OK(ReadDouble(*cpa_object, "lambda0", &config.cpa.lambda0));
    CPA_RETURN_NOT_OK(ReadDouble(*cpa_object, "zeta0", &config.cpa.zeta0));
    CPA_RETURN_NOT_OK(
        ReadSize(*cpa_object, "max_iterations", &config.cpa.max_iterations));
    CPA_RETURN_NOT_OK(ReadDouble(*cpa_object, "tolerance", &config.cpa.tolerance));
    std::size_t seed = static_cast<std::size_t>(config.cpa.seed);
    CPA_RETURN_NOT_OK(ReadSize(*cpa_object, "seed", &seed));
    config.cpa.seed = seed;
  }
  if (const JsonValue* svi_object = json.Find("svi")) {
    CPA_RETURN_NOT_OK(ReadSize(*svi_object, "workers_per_batch",
                               &config.svi.workers_per_batch));
    CPA_RETURN_NOT_OK(ReadDouble(*svi_object, "forgetting_rate",
                                 &config.svi.forgetting_rate));
    // Retired key: older builds wrote `"exact_local_phi": true` (the
    // exact local ϕ update, now the only path) into session checkpoints,
    // so true is accepted and ignored. false asked for the removed
    // paper-literal µ path and is refused rather than silently ignored.
    bool exact_local_phi = true;
    CPA_RETURN_NOT_OK(ReadBool(*svi_object, "exact_local_phi", &exact_local_phi));
    if (!exact_local_phi) {
      return Status::InvalidArgument(
          "svi.exact_local_phi=false (the paper-literal µ natural-gradient "
          "path, Eqs. 15-17) was removed; only the exact local ϕ update "
          "remains");
    }
    CPA_RETURN_NOT_OK(ReadSize(*svi_object, "reinforcement_rounds",
                               &config.svi.reinforcement_rounds));
  }
  if (const JsonValue* majority_object = json.Find("majority")) {
    CPA_RETURN_NOT_OK(
        ReadDouble(*majority_object, "threshold", &config.majority.threshold));
    CPA_RETURN_NOT_OK(ReadBool(*majority_object, "fallback_to_top_label",
                               &config.majority.fallback_to_top_label));
  }
  if (const JsonValue* em_object = json.Find("em")) {
    CPA_RETURN_NOT_OK(
        ReadSize(*em_object, "max_iterations", &config.em.max_iterations));
    CPA_RETURN_NOT_OK(ReadDouble(*em_object, "tolerance", &config.em.tolerance));
    CPA_RETURN_NOT_OK(ReadDouble(*em_object, "smoothing", &config.em.smoothing));
    CPA_RETURN_NOT_OK(ReadDouble(*em_object, "threshold", &config.em.threshold));
    CPA_RETURN_NOT_OK(ReadBool(*em_object, "use_mislabeling_cost",
                               &config.em.use_mislabeling_cost));
  }
  if (const JsonValue* cbcc_object = json.Find("cbcc")) {
    CPA_RETURN_NOT_OK(
        ReadSize(*cbcc_object, "num_communities", &config.cbcc.num_communities));
    CPA_RETURN_NOT_OK(
        ReadSize(*cbcc_object, "max_iterations", &config.cbcc.max_iterations));
    CPA_RETURN_NOT_OK(ReadDouble(*cbcc_object, "tolerance", &config.cbcc.tolerance));
    CPA_RETURN_NOT_OK(ReadDouble(*cbcc_object, "threshold", &config.cbcc.threshold));
  }
  return config;
}

Result<EngineConfig> EngineConfig::WithFlags(const Flags& flags) const {
  EngineConfig config = *this;
  config.method = flags.GetString("method", config.method);
  // Dimension/count flags must stay non-negative: a raw size_t cast would
  // wrap "-1" to 2^64-1 and sail past Validate into an absurd allocation.
  Status negative = Status::OK();
  const auto size_flag = [&flags, &negative](std::string_view name,
                                             std::size_t current) {
    const long long value =
        flags.GetInt(name, static_cast<long long>(current));
    if (value < 0 && negative.ok()) {
      negative = Status::InvalidArgument(
          StrFormat("--%s must be non-negative, got %lld",
                    std::string(name).c_str(), value));
    }
    return value < 0 ? current : static_cast<std::size_t>(value);
  };
  config.num_items = size_flag("num-items", config.num_items);
  config.num_workers = size_flag("num-workers", config.num_workers);
  config.num_labels = size_flag("num-labels", config.num_labels);
  config.num_threads = size_flag("num-threads", config.num_threads);
  config.cpa.max_iterations = size_flag("cpa-iterations", config.cpa.max_iterations);
  config.cpa.max_communities =
      size_flag("max-communities", config.cpa.max_communities);
  config.cpa.max_clusters = size_flag("max-clusters", config.cpa.max_clusters);
  config.svi.workers_per_batch =
      size_flag("workers-per-batch", config.svi.workers_per_batch);
  CPA_RETURN_NOT_OK(negative);
  config.svi.forgetting_rate =
      flags.GetDouble("forgetting-rate", config.svi.forgetting_rate);
  config.majority.threshold =
      flags.GetDouble("mv-threshold", config.majority.threshold);
  CPA_RETURN_NOT_OK(config.Validate());
  return config;
}

}  // namespace cpa
