// Figure 1: q-error distribution per QFT x ML model combination on the
// forest data set. simple/range/conjunctive run on the conjunctive workload;
// complex runs on the mixed workload (separated in the paper by a vertical
// line). MSCN rows use the set featurization: "simple" corresponds to the
// original per-predicate mode, "range" to a per-attribute range mode, and
// "conjunctive"/"complex" to the per-attribute QFT mode of Section 4.2.

#include <iostream>

#include "bench_common.h"

namespace qfcard::bench {
namespace {

void Run() {
  ForestBundle bundle = MakeForestBundle();
  eval::TablePrinter table(
      {"model", "qft", "workload", "box (p1 | p25 [med] p75 | p99 (max))",
       "mean", "train s"});

  const std::vector<std::string> qfts{"simple", "range", "conjunctive",
                                      "complex"};
  for (const std::string model_kind : {"GB", "NN"}) {
    for (const std::string& qft : qfts) {
      const bool mixed = qft == "complex";
      const auto& train = mixed ? bundle.mixed_train : bundle.conj_train;
      const auto& test = mixed ? bundle.mixed_test : bundle.conj_test;
      const auto featurizer = MakeQft(qft, bundle.schema);
      const auto model = MakeModel(model_kind);
      const auto result_or =
          eval::RunQftModel(*featurizer, *model, train, test);
      if (!result_or.ok()) {
        std::fprintf(stderr, "%s+%s failed: %s\n", model_kind.c_str(),
                     qft.c_str(), result_or.status().ToString().c_str());
        continue;
      }
      const eval::RunResult& r = result_or.value();
      table.AddRow({model_kind, qft, mixed ? "mixed" : "conjunctive",
                    eval::FormatBox(r.summary), eval::FormatQ(r.summary.mean),
                    common::StrFormat("%.1f", r.train_seconds)});
    }
  }

  // MSCN (global model applied to the single-table forest catalog).
  for (const std::string& qft : qfts) {
    const bool mixed = qft == "complex";
    const auto& train = mixed ? bundle.mixed_train : bundle.conj_train;
    const auto& test = mixed ? bundle.mixed_test : bundle.conj_test;
    const featurize::MscnFeaturizer::PredMode mode =
        qft == "simple"
            ? featurize::MscnFeaturizer::PredMode::kPerPredicate
        : qft == "range"
            ? featurize::MscnFeaturizer::PredMode::kPerAttributeRange
            : featurize::MscnFeaturizer::PredMode::kPerAttributeQft;
    featurize::MscnFeaturizer featurizer(&bundle.catalog, nullptr, mode,
                                         DefaultConjOptions());
    est::MscnEstimator estimator(std::move(featurizer), DefaultMscn());
    std::vector<query::Query> queries;
    std::vector<double> cards;
    for (const workload::LabeledQuery& lq : train) {
      queries.push_back(lq.query);
      cards.push_back(lq.card);
    }
    obs::ScopedTimer timer;
    QFCARD_CHECK_OK(estimator.Train(queries, cards, 0.1));
    const double train_seconds = timer.Seconds();
    std::vector<double> errors;
    for (const workload::LabeledQuery& lq : test) {
      const auto est_or = estimator.EstimateCard(lq.query);
      if (!est_or.ok()) continue;
      errors.push_back(ml::QError(lq.card, est_or.value()));
    }
    const ml::QErrorSummary s = ml::QErrorSummary::FromErrors(errors);
    table.AddRow({"MSCN", qft, mixed ? "mixed" : "conjunctive",
                  eval::FormatBox(s), eval::FormatQ(s.mean),
                  common::StrFormat("%.1f", train_seconds)});
  }

  std::printf("Figure 1: error distribution by QFT x ML model (forest)\n");
  table.Print(std::cout);
}

}  // namespace
}  // namespace qfcard::bench

int main() {
  qfcard::bench::Run();
  return 0;
}
