// Strict command-line parsing for the benchmark binary.
//
// Every flag takes exactly one value (except --self-test), every number
// must parse completely, and an unknown or repeated flag is an error:
// a typo must never turn into a silently different run (such as a 0 s
// measurement window).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline const std::vector<std::string> kWorkloads = {"lte_mix", "city"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
};

// `argv` excludes the program name. On failure returns nullopt and sets
// `err` to a one-line message naming the offending argument.
std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::string& err);

}  // namespace perfbench
