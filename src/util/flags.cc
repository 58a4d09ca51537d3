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

long long Flags::GetInt(std::string_view name, long long fallback) const {
  const std::string* value = Read(name);
  if (value == nullptr) return fallback;
  const auto parsed = ParseInt(*value);
  return parsed.ok() ? parsed.value() : fallback;
}

double Flags::GetDouble(std::string_view name, double fallback) const {
  const std::string* value = Read(name);
  if (value == nullptr) return fallback;
  const auto parsed = ParseDouble(*value);
  return parsed.ok() ? parsed.value() : fallback;
}

bool Flags::GetBool(std::string_view name, bool fallback) const {
  const std::string* value = Read(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

bool Flags::Has(std::string_view name) const { return Read(name) != nullptr; }

Status Flags::CheckAllRead() const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) > 0) continue;
    unread += unread.empty() ? "--" : ", --";
    unread += name;
  }
  if (unread.empty()) return Status::OK();
  return Status::InvalidArgument(StrFormat("unknown flag(s): %s", unread.c_str()));
}

}  // namespace cpa
