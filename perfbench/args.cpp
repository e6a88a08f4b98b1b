#include "args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <set>

namespace perfbench {
namespace {

// Whole unsigned decimal number, no sign, no whitespace, no trailing text.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20 ||
      !std::all_of(s.begin(), s.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

}  // namespace

std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::string& err) {
  Args a;
  bool have_workload = false;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& flag = argv[i];
    if (!seen.insert(flag).second) {
      err = "repeated flag " + flag;
      return std::nullopt;
    }
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      err = "unknown argument '" + flag + "'";
      return std::nullopt;
    }
    if (i + 1 >= argv.size()) {
      err = flag + " needs a value";
      return std::nullopt;
    }
    const std::string& val = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (std::find(kWorkloads.begin(), kWorkloads.end(), val) ==
          kWorkloads.end()) {
        err = "unknown workload '" + val + "'";
        return std::nullopt;
      }
      a.workload = val;
      have_workload = true;
    } else if (!parse_u64(val, n)) {
      err = flag + " wants a whole non-negative number, got '" + val + "'";
      return std::nullopt;
    } else if (flag == "--seed") {
      a.seed = n;
    } else if (flag == "--seconds") {
      if (n < 1 || n > 3600) {
        err = "--seconds must be in [1, 3600], got " + val;
        return std::nullopt;
      }
      a.seconds = static_cast<int>(n);
    } else {  // --trace
      if (n > 1) {
        err = "--trace must be 0 or 1, got " + val;
        return std::nullopt;
      }
      a.trace = n == 1;
    }
  }
  if (!have_workload && !a.self_test) {
    err = "--workload is required";
    return std::nullopt;
  }
  return a;
}

}  // namespace perfbench
