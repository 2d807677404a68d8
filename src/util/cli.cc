#include "util/cli.h"

#include <cmath>
#include <iostream>
#include <sstream>

#include "util/string_util.h"

namespace kanon {

CommandLine CommandLine::Parse(int argc, const char* const* argv) {
  CommandLine cl;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      cl.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      cl.flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      cl.flags_[body] = argv[++i];
    } else {
      cl.flags_[body] = "true";
    }
  }
  return cl;
}

bool CommandLine::HasFlag(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::vector<std::string> CommandLine::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const std::string& k : known) {
      if (name == k) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;  // flags_ is an ordered map, so this is sorted
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long long CommandLine::GetInt(const std::string& name,
                              long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  long long value = 0;
  return ParseInt(it->second, &value) ? value : fallback;
}

StatusOr<long long> CommandLine::GetValidatedInt(const std::string& name,
                                                 long long fallback,
                                                 long long min_value,
                                                 long long max_value) const {
  long long value = fallback;
  const auto it = flags_.find(name);
  if (it != flags_.end() && !ParseInt(it->second, &value)) {
    return Status::InvalidArgument("--" + name + "=" + it->second +
                                   " is not an integer");
  }
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        "--" + name + "=" + std::to_string(value) + " out of range [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  }
  return value;
}

double CommandLine::GetDouble(const std::string& name,
                              double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  double value = 0;
  return ParseDouble(it->second, &value) ? value : fallback;
}

StatusOr<double> CommandLine::GetValidatedDouble(const std::string& name,
                                                double fallback,
                                                double min_value,
                                                double max_value) const {
  double value = fallback;
  const auto it = flags_.find(name);
  if (it != flags_.end() &&
      (!ParseDouble(it->second, &value) || !std::isfinite(value))) {
    return Status::InvalidArgument("--" + name + "=" + it->second +
                                   " is not a finite number");
  }
  if (value < min_value || value > max_value) {
    std::ostringstream message;
    message << "--" << name << "=" << value << " out of range ["
            << min_value << ", " << max_value << "]";
    return Status::InvalidArgument(message.str());
  }
  return value;
}

bool CommandLine::GetBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return fallback;
}

bool CheckKnownFlags(const CommandLine& cl, std::string_view program,
                     const std::vector<std::string>& known) {
  const std::vector<std::string> unknown = cl.UnknownFlags(known);
  for (const std::string& flag : unknown) {
    std::cerr << program << ": unknown flag --" << flag << "\n";
  }
  return unknown.empty();
}

}  // namespace kanon
