// qfcard_fuzz: differential & metamorphic fuzzer CLI (src/testing/).
//
//   qfcard_fuzz [--seed=N] [--rounds=N] [--round=N] [--queries=N]
//               [--max-rows=N] [--artifact=PATH]
//
// Exits 0 when every check passes, 1 on violations (after shrinking each
// failing query to a minimal reproducer), 2 on usage errors. The summary —
// including replay lines — goes to stdout; when a violation occurs and
// --artifact (or $QFCARD_FUZZ_ARTIFACT) names a file, the same text is
// written there so CI can upload it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "testing/query_fuzzer.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qfcard::testing::FuzzOptions options;
  std::string artifact;
  if (const char* env = std::getenv("QFCARD_FUZZ_ARTIFACT")) artifact = env;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--rounds", &value)) {
      options.rounds = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--round", &value)) {
      options.replay_round = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--queries", &value)) {
      options.queries_per_round = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--max-rows", &value)) {
      options.max_rows = std::atoll(value.c_str());
    } else if (ParseFlag(argv[i], "--artifact", &value)) {
      artifact = value;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\n"
                   "usage: qfcard_fuzz [--seed=N] [--rounds=N] [--round=N] "
                   "[--queries=N] [--max-rows=N] [--artifact=PATH]\n",
                   argv[i]);
      return 2;
    }
  }
  if (options.replay_round >= 0 && options.replay_round >= options.rounds) {
    // Replaying round R requires the loop to reach R.
    options.rounds = options.replay_round + 1;
  }

  const qfcard::testing::FuzzReport report =
      qfcard::testing::RunFuzzer(options);
  const std::string summary = report.Summary();
  std::fputs(summary.c_str(), stdout);

  if (!report.ok() && !artifact.empty()) {
    std::ofstream out(artifact);
    if (out) {
      out << summary;
      std::fprintf(stdout, "reproducer written to %s\n", artifact.c_str());
    } else {
      std::fprintf(stderr, "could not write artifact %s\n", artifact.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}
