#include "testing/query_fuzzer.h"

#include <functional>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "estimators/postgres.h"
#include "estimators/registry.h"
#include "estimators/sampling.h"
#include "estimators/true_card.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/join_executor.h"
#include "query/normalize.h"
#include "storage/catalog.h"
#include "workload/labeler.h"
#include "testing/metamorphic.h"
#include "testing/reference_eval.h"
#include "testing/shrink.h"
#include "workload/families.h"
#include "workload/forest.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace qfcard::testing {

namespace {

using est::CardinalityEstimator;

/// One scenario's state plus the running report. All randomness derives from
/// MixSeed(seed, round), so any round replays in isolation.
class Fuzzer {
 public:
  explicit Fuzzer(const FuzzOptions& options) : opts_(options) {}

  FuzzReport Run() {
    for (int r = 0; r < opts_.rounds; ++r) {
      if (opts_.replay_round >= 0 && r != opts_.replay_round) continue;
      if (static_cast<int>(report_.failures.size()) >= opts_.max_failures) {
        break;
      }
      ++report_.rounds;
      const bool join_round =
          opts_.join_round_every > 0 &&
          (r + 1) % opts_.join_round_every == 0;
      const bool loader_round =
          opts_.loader_round_every > 0 &&
          (r + 1) % opts_.loader_round_every == 0;
      const bool adaptive_round =
          opts_.adaptive_round_every > 0 &&
          (r + 1) % opts_.adaptive_round_every == 0;
      const bool family_round =
          opts_.family_round_every > 0 &&
          (r + 1) % opts_.family_round_every == 0;
      if (join_round) {
        ImdbRound(r);
      } else if (loader_round) {
        LoaderFuzzRound(FuzzRoundContext{&opts_, r, &report_});
      } else if (adaptive_round) {
        AdaptiveFuzzRound(FuzzRoundContext{&opts_, r, &report_});
      } else if (family_round) {
        FamilyRound(r);
      } else {
        ForestRound(r);
      }
    }
    return std::move(report_);
  }

 private:
  // ---- failure plumbing ----------------------------------------------------

  void RecordFailure(const std::string& check, const std::string& detail,
                     int round, const query::Query& q,
                     const storage::Catalog& catalog,
                     const FailurePredicate& still_fails) {
    obs::IncrementCounter("fuzz.failures", "check=" + check);
    const query::Query minimal = ShrinkQuery(q, still_fails);
    report_.failures.push_back(FuzzFailure{
        check, detail, round,
        DescribeReproducer(minimal, catalog, opts_.seed, round)});
  }

  void RecordPlainFailure(const std::string& check, const std::string& detail,
                          int round) {
    FuzzRoundContext{&opts_, round, &report_}.RecordFailure(check, detail);
  }

  bool Full() const {
    return static_cast<int>(report_.failures.size()) >= opts_.max_failures;
  }

  // ---- per-query checks ----------------------------------------------------

  // Differential: engine count vs naive reference count. `count_engine` and
  // `count_reference` wrap whichever executor pair applies.
  using CountFn =
      std::function<common::StatusOr<int64_t>(const query::Query&)>;

  void CheckExecutorDifferential(const query::Query& q,
                                 const storage::Catalog& catalog, int round,
                                 const CountFn& engine, const CountFn& ref) {
    ++report_.checks;
    const auto disagree = [&](const query::Query& cand) {
      const common::StatusOr<int64_t> e = engine(cand);
      const common::StatusOr<int64_t> r = ref(cand);
      if (e.ok() != r.ok()) return true;
      return e.ok() && e.value() != r.value();
    };
    if (!disagree(q)) return;
    const common::StatusOr<int64_t> e = engine(q);
    const common::StatusOr<int64_t> r = ref(q);
    std::ostringstream detail;
    detail << "engine=" << (e.ok() ? std::to_string(e.value())
                                   : e.status().ToString())
           << " reference=" << (r.ok() ? std::to_string(r.value())
                                       : r.status().ToString());
    RecordFailure("executor-vs-reference", detail.str(), round, q, catalog,
                  disagree);
  }

  // No generator emits a GROUP BY join, so every checked join query is also
  // differentially checked grouped by its first join's left column. The
  // variant is derived from `q` alone and draws no random numbers, so the
  // round's query stream is unchanged.
  void CheckGroupedJoinDifferential(const query::Query& q,
                                    const storage::Catalog& catalog,
                                    int round, const CountFn& engine,
                                    const CountFn& ref) {
    if (q.joins.empty()) return;
    query::Query grouped = q;
    grouped.group_by = {q.joins[0].left};
    CheckExecutorDifferential(grouped, catalog, round, engine, ref);
  }

  // Parser round trip: ToSql must be printable, Parse(ToSql(q)) must be
  // structurally identical to q (all generated literals are integral, so no
  // formatting precision is lost), and ToSql must be a fixed point.
  void CheckParserRoundTrip(const query::Query& q,
                            const storage::Catalog& catalog, int round) {
    ++report_.checks;
    const auto broken = [&](const query::Query& cand)
        -> common::StatusOr<std::string> {  // error text, or "" when fine
      const common::StatusOr<std::string> sql = query::QueryToSql(cand, catalog);
      if (!sql.ok()) return "ToSql failed: " + sql.status().ToString();
      const common::StatusOr<query::Query> back =
          query::ParseQuery(sql.value(), catalog);
      if (!back.ok()) {
        return "reparse of \"" + sql.value() +
               "\" failed: " + back.status().ToString();
      }
      if (!(back.value() == cand)) {
        return "Parse(ToSql(q)) != q for \"" + sql.value() + "\"";
      }
      const common::StatusOr<std::string> sql2 =
          query::QueryToSql(back.value(), catalog);
      if (!sql2.ok() || sql2.value() != sql.value()) {
        return "ToSql not a fixed point: \"" + sql.value() + "\"";
      }
      return std::string();
    };
    const common::StatusOr<std::string> verdict = broken(q);
    const std::string detail = verdict.ok() ? verdict.value()
                                            : verdict.status().ToString();
    if (detail.empty()) return;
    RecordFailure("parser-roundtrip", detail, round, q, catalog,
                  [&](const query::Query& cand) {
                    const auto v = broken(cand);
                    return !v.ok() || !v.value().empty();
                  });
  }

  // Metamorphic invariants against one estimator. `tag` names the estimator
  // in failure reports; `qseed` makes every check's random choices
  // reproducible during shrinking.
  void CheckMetamorphic(const CardinalityEstimator& estimator,
                        const std::string& tag, const query::Query& q,
                        const storage::Catalog& catalog, uint64_t qseed,
                        int round) {
    struct NamedCheck {
      const char* name;
      std::function<common::Status(const query::Query&, common::Rng&)> run;
    };
    const NamedCheck checks[] = {
        {"metamorphic-widening",
         [&](const query::Query& cand, common::Rng& rng) {
           return CheckWideningMonotone(estimator, cand, rng);
         }},
        {"metamorphic-conjunct",
         [&](const query::Query& cand, common::Rng& rng) {
           return CheckConjunctMonotone(estimator, catalog, cand, rng);
         }},
        {"metamorphic-in-list",
         [&](const query::Query& cand, common::Rng& rng) {
           return CheckInListMonotone(estimator, cand, rng);
         }},
        {"metamorphic-permutation",
         [&](const query::Query& cand, common::Rng& rng) {
           return CheckPermutationInvariance(estimator, cand, rng);
         }},
    };
    uint64_t stream = 0;
    for (const NamedCheck& check : checks) {
      if (Full()) return;
      ++report_.checks;
      const uint64_t check_seed = common::MixSeed(qseed, ++stream);
      const auto failed = [&](const query::Query& cand) {
        common::Rng rng(check_seed);
        const common::Status s = check.run(cand, rng);
        return !s.ok() &&
               s.code() == common::StatusCode::kFailedPrecondition;
      };
      common::Rng rng(check_seed);
      const common::Status status = check.run(q, rng);
      if (status.ok()) continue;
      RecordFailure(std::string(check.name) + ":" + tag, status.ToString(),
                    round, q, catalog, failed);
    }
  }

  void CheckFeaturizers(
      const std::vector<const featurize::Featurizer*>& featurizers,
      const query::Query& q, const storage::Catalog& catalog, uint64_t qseed,
      int round) {
    uint64_t stream = 100;
    for (const featurize::Featurizer* f : featurizers) {
      if (Full()) return;
      ++report_.checks;
      const uint64_t check_seed = common::MixSeed(qseed, ++stream);
      const auto failed = [&](const query::Query& cand) {
        common::Rng rng(check_seed);
        return !CheckFeaturizationPermutationInvariance(*f, cand, rng).ok();
      };
      common::Rng rng(check_seed);
      const common::Status status =
          CheckFeaturizationPermutationInvariance(*f, q, rng);
      if (status.ok()) continue;
      RecordFailure("metamorphic-featurization:" + f->name(),
                    status.ToString(), round, q, catalog, failed);
    }
  }

  void CheckTrueCard(const query::Query& q, const storage::Catalog& catalog,
                     int round) {
    ++report_.checks;
    const common::Status status = CheckTrueCardExact(catalog, q);
    if (status.ok()) return;
    RecordFailure("true-card-exact", status.ToString(), round, q, catalog,
                  [&](const query::Query& cand) {
                    return !CheckTrueCardExact(catalog, cand).ok();
                  });
  }

  // ---- batch parity --------------------------------------------------------

  // EstimateBatch must be byte-identical to the serial EstimateCard loop at
  // every pool size. `make` builds a fresh estimator per run so per-query
  // random streams (sampling) restart identically.
  void CheckBatchParity(
      const std::function<std::unique_ptr<CardinalityEstimator>()>& make,
      const std::string& tag, const std::vector<query::Query>& queries,
      int round) {
    ++report_.checks;
    const int restore = common::ThreadPoolSizeFromEnv();

    // Probe pass: keep only queries this estimator can answer, so an
    // expected per-query error does not abort the whole comparison.
    std::vector<query::Query> answerable;
    {
      const std::unique_ptr<CardinalityEstimator> probe = make();
      for (const query::Query& q : queries) {
        if (probe->EstimateCard(q).ok()) answerable.push_back(q);
      }
    }
    if (answerable.empty()) {
      common::SetGlobalThreads(restore);
      return;
    }

    common::SetGlobalThreads(1);
    std::vector<double> serial;
    serial.reserve(answerable.size());
    {
      const std::unique_ptr<CardinalityEstimator> ref = make();
      for (const query::Query& q : answerable) {
        const common::StatusOr<double> v = ref->EstimateCard(q);
        if (!v.ok()) {
          common::SetGlobalThreads(restore);
          RecordPlainFailure("batch-parity:" + tag,
                             "serial re-run failed after probe succeeded: " +
                                 v.status().ToString(),
                             round);
          return;
        }
        serial.push_back(v.value());
      }
    }

    for (const int threads : opts_.parity_threads) {
      common::SetGlobalThreads(threads);
      const std::unique_ptr<CardinalityEstimator> estimator = make();
      const common::StatusOr<std::vector<double>> batch =
          estimator->EstimateBatch(answerable);
      if (!batch.ok()) {
        RecordPlainFailure(
            "batch-parity:" + tag,
            common::StrFormat("EstimateBatch failed at %d threads: %s",
                              threads, batch.status().ToString().c_str()),
            round);
        break;
      }
      if (batch.value() != serial) {
        size_t bad = 0;
        while (bad < serial.size() &&
               batch.value()[bad] == serial[bad]) {
          ++bad;
        }
        RecordPlainFailure(
            "batch-parity:" + tag,
            common::StrFormat(
                "batch at %d threads diverges from serial at query %zu: "
                "%.17g vs %.17g",
                threads, bad, batch.value()[bad], serial[bad]),
            round);
        break;
      }
    }
    common::SetGlobalThreads(restore);
  }

  // ---- scenarios -----------------------------------------------------------

  void ForestRound(int round) {
    common::Rng rng(common::MixSeed(opts_.seed, static_cast<uint64_t>(round)));

    workload::ForestOptions fo;
    fo.num_rows = rng.UniformInt(150, opts_.max_rows);
    fo.num_attributes = static_cast<int>(rng.UniformInt(2, 6));
    fo.seed = rng.Next();
    storage::Catalog catalog;
    QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fo)));
    const storage::Table& table = catalog.table(0);

    workload::PredicateGenOptions go;
    go.min_attrs = rng.Bernoulli(0.2) ? 0 : 1;
    go.max_attrs = fo.num_attributes;
    go.max_not_equals = static_cast<int>(rng.UniformInt(0, 4));
    go.max_disjuncts = static_cast<int>(rng.UniformInt(1, 3));
    go.in_list_prob = 0.3;
    go.max_in_list = 6;
    if (rng.Bernoulli(0.25)) go.max_group_by_attrs = 2;
    const std::vector<query::Query> queries = workload::GeneratePredicateWorkload(
        table, opts_.queries_per_round, go, rng);

    est::PostgresOptions po;
    po.histogram_buckets = static_cast<int>(rng.UniformInt(4, 32));
    po.mcv_entries = static_cast<int>(rng.UniformInt(0, 12));
    common::StatusOr<est::PostgresStyleEstimator> postgres =
        est::PostgresStyleEstimator::Build(&catalog, po);
    if (!postgres.ok()) {
      RecordPlainFailure("postgres-build", postgres.status().ToString(),
                         round);
      return;
    }
    const est::TrueCardEstimator oracle(&catalog);

    featurize::ConjunctionOptions co;
    co.max_partitions = static_cast<int>(rng.UniformInt(2, 24));
    const std::unique_ptr<featurize::Featurizer> conj =
        featurize::MakeFeaturizer(featurize::QftKind::kConjunctive,
                                  featurize::FeatureSchema::FromTable(table),
                                  co);
    const std::unique_ptr<featurize::Featurizer> complex =
        featurize::MakeFeaturizer(featurize::QftKind::kComplex,
                                  featurize::FeatureSchema::FromTable(table),
                                  co);

    const CountFn engine = [&](const query::Query& cand) {
      return query::Executor::Count(table, cand);
    };
    const CountFn reference = [&](const query::Query& cand) {
      return ReferenceCount(table, cand);
    };

    for (const query::Query& q : queries) {
      if (Full()) return;
      ++report_.queries;
      const uint64_t qseed = rng.Next();
      if (opts_.check_executor) {
        CheckExecutorDifferential(q, catalog, round, engine, reference);
      }
      if (opts_.check_parser) CheckParserRoundTrip(q, catalog, round);
      if (opts_.check_metamorphic) {
        CheckMetamorphic(postgres.value(), "postgres", q, catalog, qseed,
                         round);
        CheckMetamorphic(oracle, "true", q, catalog, qseed, round);
        CheckFeaturizers({conj.get(), complex.get()}, q, catalog, qseed,
                         round);
        CheckTrueCard(q, catalog, round);
      }
    }

    if (opts_.check_batch_parity && !Full()) {
      const uint64_t sampling_seed = rng.Next();
      CheckBatchParity(
          [&]() -> std::unique_ptr<CardinalityEstimator> {
            return std::make_unique<est::SamplingEstimator>(&catalog, 0.05,
                                                            sampling_seed);
          },
          "sampling", queries, round);
      CheckBatchParity(
          [&]() -> std::unique_ptr<CardinalityEstimator> {
            return std::make_unique<est::TrueCardEstimator>(&catalog);
          },
          "true", queries, round);
      CheckBatchParity(
          [&]() -> std::unique_ptr<CardinalityEstimator> {
            auto built = est::PostgresStyleEstimator::Build(&catalog, po);
            QFCARD_CHECK_OK(built.status());
            return std::make_unique<est::PostgresStyleEstimator>(
                std::move(built).value());
          },
          "postgres", queries, round);
    }
  }

  // Family rounds cross-check the registered workload families — the same
  // generators the benchmark matrix (eval/matrix.h) sweeps. Each round
  // builds one family at tiny sizes and runs every labeled query through
  // the executor-vs-reference differential, the parser round trip, and a
  // label-consistency check (the stored cardinality must equal a fresh
  // engine count — a regression here means parallel labeling drifted).
  void FamilyRound(int round) {
    common::Rng rng(common::MixSeed(opts_.seed, static_cast<uint64_t>(round)));
    const std::vector<workload::WorkloadFamily>& families =
        workload::RegisteredFamilies();
    const workload::WorkloadFamily& family =
        families[static_cast<size_t>(round) % families.size()];

    // Sized to match a forest round's query budget (queries_per_round) so
    // swapping round types keeps the smoke test's total-coverage floor.
    workload::FamilySizes sizes;
    sizes.rows = rng.UniformInt(200, opts_.max_rows);
    sizes.train = (opts_.queries_per_round * 5) / 8;
    sizes.test = (opts_.queries_per_round * 3) / 8;
    auto inst_or = family.build(sizes, rng.Next());
    if (!inst_or.ok()) {
      RecordPlainFailure("family-build:" + family.name,
                         inst_or.status().ToString(), round);
      return;
    }
    const workload::FamilyInstance inst = std::move(inst_or).value();
    const storage::Table& table =
        *inst.catalog.GetTable(inst.primary_table).value();

    const CountFn engine = [&](const query::Query& cand) {
      return query::JoinExecutor::Count(inst.catalog, cand);
    };
    const CountFn reference = [&](const query::Query& cand) {
      if (cand.tables.size() > 1) {
        return ReferenceJoinCount(inst.catalog, cand);
      }
      return ReferenceCount(table, cand);
    };

    // The naive reference join enumerates nested loops, so join queries are
    // budgeted like ImdbRound: at most join_queries_per_round, joins kept
    // narrow.
    int join_budget = opts_.join_queries_per_round;
    std::vector<workload::LabeledQuery> labeled = inst.train;
    labeled.insert(labeled.end(), inst.test.begin(), inst.test.end());
    for (const workload::LabeledQuery& lq : labeled) {
      if (Full()) return;
      const query::Query& q = lq.query;
      if (q.tables.size() > 3) continue;
      const bool is_join = q.tables.size() > 1;
      if (is_join && join_budget-- <= 0) break;
      ++report_.queries;
      if (opts_.check_executor) {
        CheckExecutorDifferential(q, inst.catalog, round, engine, reference);
        CheckGroupedJoinDifferential(q, inst.catalog, round, engine,
                                     reference);
        ++report_.checks;
        const common::StatusOr<int64_t> fresh = engine(q);
        if (!fresh.ok() ||
            static_cast<double>(fresh.value()) != lq.card) {
          RecordPlainFailure(
              "family-label-consistency:" + family.name,
              common::StrFormat(
                  "stored card %.0f vs fresh engine count %s", lq.card,
                  fresh.ok() ? std::to_string(fresh.value()).c_str()
                             : fresh.status().ToString().c_str()),
              round);
        }
      }
      if (opts_.check_parser) CheckParserRoundTrip(q, inst.catalog, round);
    }
  }

  void ImdbRound(int round) {
    common::Rng rng(common::MixSeed(opts_.seed, static_cast<uint64_t>(round)));

    workload::ImdbOptions io;
    io.num_titles = rng.UniformInt(60, 140);
    io.fanout_scale = 0.5;
    io.seed = rng.Next();
    const workload::ImdbDatabase db = workload::MakeImdbDatabase(io);

    workload::JobLightOptions jo;
    jo.count = opts_.join_queries_per_round;
    jo.min_tables = 2;
    // The naive reference enumerates nested loops; keep joins narrow.
    jo.max_tables = 3;
    const std::vector<query::Query> queries =
        workload::MakeJobLightWorkload(db, jo, rng);

    common::StatusOr<est::PostgresStyleEstimator> postgres =
        est::PostgresStyleEstimator::Build(&db.catalog, {});
    if (!postgres.ok()) {
      RecordPlainFailure("postgres-build", postgres.status().ToString(),
                         round);
      return;
    }
    const est::TrueCardEstimator oracle(&db.catalog);

    const CountFn engine = [&](const query::Query& cand) {
      return query::JoinExecutor::Count(db.catalog, cand);
    };
    const CountFn reference = [&](const query::Query& cand) {
      return ReferenceJoinCount(db.catalog, cand);
    };

    for (const query::Query& q : queries) {
      if (Full()) return;
      ++report_.queries;
      const uint64_t qseed = rng.Next();
      if (opts_.check_executor) {
        CheckExecutorDifferential(q, db.catalog, round, engine, reference);
        CheckGroupedJoinDifferential(q, db.catalog, round, engine, reference);
      }
      if (opts_.check_parser) CheckParserRoundTrip(q, db.catalog, round);
      if (opts_.check_metamorphic) {
        CheckMetamorphic(postgres.value(), "postgres", q, db.catalog, qseed,
                         round);
        CheckMetamorphic(oracle, "true", q, db.catalog, qseed, round);
        CheckTrueCard(q, db.catalog, round);
      }
    }

    if (opts_.check_batch_parity && !Full()) {
      CheckBatchParity(
          [&]() -> std::unique_ptr<CardinalityEstimator> {
            return std::make_unique<est::TrueCardEstimator>(&db.catalog);
          },
          "true", queries, round);
      CheckBatchParity(
          [&]() -> std::unique_ptr<CardinalityEstimator> {
            auto built = est::PostgresStyleEstimator::Build(&db.catalog, {});
            QFCARD_CHECK_OK(built.status());
            return std::make_unique<est::PostgresStyleEstimator>(
                std::move(built).value());
          },
          "postgres", queries, round);
    }
  }

  const FuzzOptions opts_;
  FuzzReport report_;
};

}  // namespace

void FuzzRoundContext::RecordFailure(const std::string& check,
                                     const std::string& detail) const {
  obs::IncrementCounter("fuzz.failures", "check=" + check);
  report->failures.push_back(FuzzFailure{
      check, detail, round,
      common::StrFormat("replay: qfcard_fuzz --seed=%llu --round=%d "
                        "--rounds=1\n",
                        static_cast<unsigned long long>(options->seed),
                        round)});
}

bool FuzzRoundContext::Full() const {
  return static_cast<int>(report->failures.size()) >= options->max_failures;
}

std::string FuzzReport::Summary() const {
  std::ostringstream out;
  out << "fuzz: " << rounds << " rounds, " << queries << " queries, "
      << checks << " checks, " << failures.size() << " failure(s)\n";
  for (const FuzzFailure& f : failures) {
    out << "[" << f.check << "] round " << f.round << ": " << f.detail
        << "\n" << f.reproducer;
  }
  return out.str();
}

FuzzReport RunFuzzer(const FuzzOptions& options) {
  Fuzzer fuzzer(options);
  return fuzzer.Run();
}

}  // namespace qfcard::testing
