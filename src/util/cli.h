#ifndef KANON_UTIL_CLI_H_
#define KANON_UTIL_CLI_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// A tiny `--flag=value` command-line parser used by the example binaries
/// and the experiment harnesses. Not a general-purpose library: flags are
/// string-keyed and typed accessors fall back to caller defaults.

namespace kanon {

/// Parsed command line: `--name=value` and `--name value` pairs plus bare
/// positional arguments. `--flag` with no value is stored as "true".
class CommandLine {
 public:
  /// Parses argv (excluding argv[0]). Later duplicates win.
  static CommandLine Parse(int argc, const char* const* argv);

  bool HasFlag(const std::string& name) const;

  /// Flags present on the command line but absent from `known`, in
  /// sorted order. Binaries with a fixed flag set use this to reject a
  /// typo (`--workres=4`) with a usage message and a non-zero exit
  /// instead of silently running with the default.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

  /// Typed accessors; return `fallback` when absent or unparsable.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  long long GetInt(const std::string& name, long long fallback) const;

  /// Strict variant of GetInt for values the program cannot guess at:
  /// returns kInvalidArgument when the flag is present but unparsable, or
  /// when the value (parsed or fallback) lies outside
  /// [min_value, max_value]. Lets a CLI reject bad input with a message
  /// and a non-zero exit instead of silently using the fallback.
  StatusOr<long long> GetValidatedInt(const std::string& name,
                                      long long fallback,
                                      long long min_value,
                                      long long max_value) const;
  double GetDouble(const std::string& name, double fallback) const;

  /// Strict variant of GetDouble, like GetValidatedInt: kInvalidArgument
  /// when the flag is present but unparsable or not finite (`nan`,
  /// `inf`), or when the value lies outside [min_value, max_value].
  StatusOr<double> GetValidatedDouble(const std::string& name,
                                      double fallback, double min_value,
                                      double max_value) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// The usage check of a binary with a fixed flag set: prints
/// `<program>: unknown flag --<name>` on stderr for every flag of `cl`
/// outside `known`, and returns false when there was one. Call it before
/// the binary does any work or writes any output, and exit on false.
bool CheckKnownFlags(const CommandLine& cl, std::string_view program,
                     const std::vector<std::string>& known);

}  // namespace kanon

#endif  // KANON_UTIL_CLI_H_
