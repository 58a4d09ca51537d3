#ifndef CPA_UTIL_FLAGS_H_
#define CPA_UTIL_FLAGS_H_

/// \file flags.h
/// \brief Tiny command-line flag parser for bench and example binaries.
///
/// Flags use `--name=value` or `--name value` syntax. Every bench binary
/// must run with zero flags (sane defaults) so `for b in build/bench/*`
/// works; flags only tweak scale for interactive exploration.
///
/// A binary that wants bad flags refused reads every flag it accepts and
/// then calls `CheckAllRead`, which fails on any supplied flag no accessor
/// asked for and on any value an accessor could not use (a misspelt or
/// retired flag, or `--num-threads two`, would otherwise run silently with
/// its default). The accessors record each name they are asked for, so
/// one `Flags` must not be read from two threads at once.

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cpa {

/// \brief Parsed command-line flags with typed accessors.
class Flags {
 public:
  /// Parses argv. Unknown positional arguments produce an error status.
  static Result<Flags> Parse(int argc, char** argv);

  /// Returns the flag value, or `fallback` when it is absent or does not
  /// parse (a boolean is one of true/1/yes/false/0/no).
  std::string GetString(std::string_view name, std::string_view fallback) const;
  long long GetInt(std::string_view name, long long fallback) const;
  double GetDouble(std::string_view name, double fallback) const;
  bool GetBool(std::string_view name, bool fallback) const;

  /// `GetInt` for a value that must lie in [min, max]; a value outside
  /// returns `fallback` and counts as one that does not parse.
  long long GetIntInRange(std::string_view name, long long fallback, long long min,
                          long long max) const;

  /// True if the flag was supplied.
  bool Has(std::string_view name) const;

  /// Fails, naming them, when some supplied flags were never asked for by
  /// `Get*` or `Has` or had a value a `Get*` could not use. Call it once
  /// every flag the binary accepts is read.
  Status CheckAllRead() const;

 private:
  /// Marks `name` as read and returns its value, or nullptr when absent.
  const std::string* Read(std::string_view name) const;

  /// Records, for `CheckAllRead`, why the value of `name` was unusable.
  void RejectValue(std::string_view name, std::string_view why) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::set<std::string, std::less<>> read_;
  mutable std::map<std::string, std::string, std::less<>> rejected_;
};

}  // namespace cpa

#endif  // CPA_UTIL_FLAGS_H_
