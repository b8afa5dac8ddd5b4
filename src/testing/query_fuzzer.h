#ifndef QFCARD_TESTING_QUERY_FUZZER_H_
#define QFCARD_TESTING_QUERY_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace qfcard::testing {

/// Deterministic, seed-driven differential fuzzer. Every round builds a
/// fresh random scenario — a synthetic forest-like table or the IMDb-like
/// join schema, both via the workload:: generators — generates a batch of
/// random mixed-predicate queries (ranges, not-equals, IN-lists,
/// disjunctions, GROUP BY, key/foreign-key joins), and cross-checks, per
/// query:
///
///   parser-roundtrip        Parse(ToSql(q)) is structurally identical to q,
///                           and ToSql is a fixed point.
///   executor-vs-reference   query::Executor / query::JoinExecutor against
///                           the naive scan oracles of reference_eval.h.
///   true-card-exact         TrueCardEstimator returns the executor's count.
///   metamorphic-*           the invariant catalog of metamorphic.h against
///                           the statistics-based estimators (postgres,
///                           true) and the QFT featurizers.
///
/// and per round:
///
///   batch-parity            EstimateBatch at every configured pool size is
///                           byte-identical to the serial EstimateCard loop,
///                           including the sampling estimator's per-query
///                           random streams.
///   loader-*                (loader rounds) serve/ bundle round-trips are
///                           prediction-identical, and corrupted or
///                           truncated saved models fail with clean Status
///                           errors instead of crashing the loaders.
///
/// Rounds derive their RNG as MixSeed(seed, round), so any failing round
/// replays in isolation with --seed/--round. Failures are delta-debugged to
/// a minimal reproducer (shrink.h) before being reported.
struct FuzzOptions {
  uint64_t seed = 20260806;
  int rounds = 44;
  int queries_per_round = 64;  ///< single-table queries per forest round
  int join_queries_per_round = 8;
  /// Every join_round_every-th round fuzzes the IMDb-like join schema
  /// (naive join enumeration is exponential, so these rounds are smaller).
  int join_round_every = 5;
  /// Every loader_round_every-th round (join rounds take precedence) fuzzes
  /// the serve/ model loaders instead: train each saveable model family,
  /// round-trip it through the bundle container, then bit-flip and truncate
  /// the saved bytes — every container mutation must be rejected by the
  /// checksum, and damaged payloads fed straight to the parsers must come
  /// back as clean Status errors, never crashes.
  int loader_round_every = 9;
  /// Every adaptive_round_every-th round (join/loader rounds take
  /// precedence) fuzzes the online-adaptation front (src/adapt/): queries
  /// are executed once without and once with the execution-feedback hook
  /// publishing into a live adapt::AdaptiveEstimator — the truths must be
  /// identical (adaptation may never change what the executor computes) —
  /// and two identically-fed fronts must produce byte-identical estimates
  /// (learner determinism).
  int adaptive_round_every = 11;
  /// Every family_round_every-th round (join/loader/adaptive rounds take
  /// precedence)
  /// builds a registered workload family (workload/families.h) at tiny sizes
  /// — the generator paths behind the benchmark matrix (prefix-LIKE ranges,
  /// IN-heavy, Zipf skew, GROUP BY, correlated joins, drift splits) — and
  /// feeds every train/test query through the executor-vs-reference
  /// differential and the parser round trip. Families rotate by round index,
  /// so a default-length run covers all of them.
  int family_round_every = 7;
  int64_t max_rows = 600;  ///< rows per generated table
  bool check_parser = true;
  bool check_executor = true;
  bool check_metamorphic = true;
  bool check_batch_parity = true;
  std::vector<int> parity_threads = {1, 2, 8};
  /// When >= 0, runs only this round (reproducer replay).
  int replay_round = -1;
  /// Stop after this many failures (each failure triggers shrinking).
  int max_failures = 10;
};

struct FuzzFailure {
  std::string check;   ///< e.g. "executor-vs-reference"
  std::string detail;  ///< violation message from the failing check
  int round = 0;
  std::string reproducer;  ///< minimized SQL/structure + replay line
};

struct FuzzReport {
  int rounds = 0;
  int queries = 0;  ///< queries that went through the per-query checks
  int checks = 0;   ///< individual comparisons performed
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  /// Human-readable multi-line summary (always ends with a newline).
  std::string Summary() const;
};

FuzzReport RunFuzzer(const FuzzOptions& options);

/// The fuzzer's state as seen by a round implemented in its own file
/// (LoaderFuzzRound, AdaptiveFuzzRound): the options, the round index for
/// replay lines and the running report, whose checks and queries counts the
/// round bumps itself. Failures recorded here replay like built-in ones.
struct FuzzRoundContext {
  const FuzzOptions* options = nullptr;
  int round = 0;
  FuzzReport* report = nullptr;

  /// Records one failure with the standard replay line for `round`.
  void RecordFailure(const std::string& check,
                     const std::string& detail) const;
  /// True when the failure budget is exhausted; rounds should return early.
  bool Full() const;
};

/// The rounds FuzzOptions::loader_round_every and adaptive_round_every
/// select (testing/bundle_fuzz.cc, testing/adapt_fuzz.cc).
void LoaderFuzzRound(const FuzzRoundContext& ctx);
void AdaptiveFuzzRound(const FuzzRoundContext& ctx);

}  // namespace qfcard::testing

#endif  // QFCARD_TESTING_QUERY_FUZZER_H_
