#ifndef PERFBENCH_ARGS_H_
#define PERFBENCH_ARGS_H_

// "--key value" argument map shared by the harness binaries.

#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --key value, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string Str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  double Num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  double Num(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ARGS_H_
