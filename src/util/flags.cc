#include "util/flags.h"

#include "util/string_utils.h"

namespace cpa {

Result<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` form, or a bare boolean `--name`.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

const std::string* Flags::Read(std::string_view name) const {
  read_.emplace(name);
  const auto it = values_.find(name);
  return it != values_.end() ? &it->second : nullptr;
}

std::string Flags::GetString(std::string_view name, std::string_view fallback) const {
  const std::string* value = Read(name);
  return value != nullptr ? *value : std::string(fallback);
}

void Flags::RejectValue(std::string_view name, std::string_view why) const {
  rejected_.insert_or_assign(std::string(name), std::string(why));
}

long long Flags::GetInt(std::string_view name, long long fallback) const {
  const std::string* value = Read(name);
  if (value == nullptr) return fallback;
  const auto parsed = ParseInt(*value);
  if (!parsed.ok()) RejectValue(name, "not an integer");
  return parsed.ok() ? parsed.value() : fallback;
}

long long Flags::GetIntInRange(std::string_view name, long long fallback, long long min,
                               long long max) const {
  const long long value = GetInt(name, fallback);
  if (value >= min && value <= max) return value;
  if (Has(name)) RejectValue(name, StrFormat("outside [%lld, %lld]", min, max));
  return fallback;
}

double Flags::GetDouble(std::string_view name, double fallback) const {
  const std::string* value = Read(name);
  if (value == nullptr) return fallback;
  const auto parsed = ParseDouble(*value);
  if (!parsed.ok()) RejectValue(name, "not a number");
  return parsed.ok() ? parsed.value() : fallback;
}

bool Flags::GetBool(std::string_view name, bool fallback) const {
  const std::string* value = Read(name);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  RejectValue(name, "not a boolean");
  return fallback;
}

bool Flags::Has(std::string_view name) const { return Read(name) != nullptr; }

Status Flags::CheckAllRead() const {
  std::string problems;
  for (const auto& [name, value] : values_) {
    const bool unread = read_.count(name) == 0;
    const auto rejected = rejected_.find(name);
    if (!unread && rejected == rejected_.end()) continue;
    problems += problems.empty() ? "" : ", ";
    problems += unread ? StrFormat("unknown flag --%s", name.c_str())
                       : StrFormat("--%s=%s (%s)", name.c_str(), value.c_str(),
                                   rejected->second.c_str());
  }
  if (problems.empty()) return Status::OK();
  return Status::InvalidArgument(problems);
}

}  // namespace cpa
