#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

#include "util/logging.h"

namespace adgraph {

Result<Flags> Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      std::string key = body.substr(0, eq);
      if (key.empty()) {
        return Status::InvalidArgument("malformed flag: " + arg);
      }
      flags.values_[key] = body.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::string> Flags::keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  // Reject empty/non-numeric input, trailing junk ("12x"), and overflow —
  // strtoll with a null end pointer would silently return 0 (or a clamped
  // extreme) for all of these.
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    ADGRAPH_LOG(Warning) << "flag --" << key << "='" << text
                         << "' is not a valid integer; using default "
                         << default_value;
    return default_value;
  }
  return static_cast<int64_t>(parsed);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    ADGRAPH_LOG(Warning) << "flag --" << key << "='" << text
                         << "' is not a valid number; using default "
                         << default_value;
    return default_value;
  }
  return parsed;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace adgraph
