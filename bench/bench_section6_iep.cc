// Section 6 ("Inclusion-Exclusion Principle"): the paper argues that IEP is
// not a practical alternative to featurizing disjunctions, because one
// mixed query becomes 2^n - 1 conjunctive estimation problems, each adding
// error. This experiment makes the argument quantitative: on the mixed
// forest workload it compares
//   - GB + complex (Limited Disjunction Encoding, one estimate per query),
//   - IEP over GB + conjunctive (exponentially many estimates per query),
//   - IEP over the exact oracle (the best case for IEP: no inner error).

#include <iostream>

#include "bench_common.h"

namespace qfcard::bench {
namespace {

void Run() {
  ForestBundle bundle = MakeForestBundle(/*need_conj=*/true,
                                         /*need_mixed=*/true);
  std::vector<query::Query> train_queries;
  std::vector<double> train_cards;
  for (const workload::LabeledQuery& lq : bundle.mixed_train) {
    train_queries.push_back(lq.query);
    train_cards.push_back(lq.card);
  }

  // GB + complex: the paper's recommended estimator for mixed queries.
  est::MlEstimator complex_est(MakeQft("complex", bundle.schema),
                               MakeModel("GB"));
  QFCARD_CHECK_OK(complex_est.Train(train_queries, train_cards, 0.1, 31));

  // Inner conjunctive estimator for IEP: GB + conjunctive, trained on the
  // conjunctive workload (IEP only ever asks it conjunctive subqueries).
  std::vector<query::Query> conj_queries;
  std::vector<double> conj_cards;
  for (const workload::LabeledQuery& lq : bundle.conj_train) {
    conj_queries.push_back(lq.query);
    conj_cards.push_back(lq.card);
  }
  est::MlEstimator conj_inner(MakeQft("conjunctive", bundle.schema),
                              MakeModel("GB"));
  QFCARD_CHECK_OK(conj_inner.Train(conj_queries, conj_cards, 0.1, 32));
  const est::IepEstimator iep_ml(&conj_inner, /*max_terms=*/12);

  const est::TrueCardEstimator oracle(&bundle.catalog);
  const est::IepEstimator iep_oracle(&oracle, /*max_terms=*/12);

  struct Arm {
    std::string label;
    const est::CardinalityEstimator* estimator;
    std::vector<double> errors;
    int64_t subqueries = 0;
    int answered = 0;
    int rejected = 0;
    double seconds = 0.0;
    const est::IepEstimator* iep = nullptr;
    size_t max_queries = SIZE_MAX;
  };
  // The oracle arm re-executes every subquery against the data (hundreds of
  // scans per test query), so it runs on a subsample.
  Arm arms[] = {
      {"GB + complex (1 estimate/query)", &complex_est, {}, 0, 0, 0, 0.0,
       nullptr, SIZE_MAX},
      {"IEP over GB + conj", &iep_ml, {}, 0, 0, 0, 0.0, &iep_ml, SIZE_MAX},
      {"IEP over exact oracle (subsample)", &iep_oracle, {}, 0, 0, 0, 0.0,
       &iep_oracle, 100},
  };

  // Each arm answers its queries with one EstimateBatch call (IEP fans out
  // over the global pool); queries past the IEP term cap are rejected
  // up front, since one rejected query fails the whole batch.
  for (Arm& arm : arms) {
    obs::ScopedTimer timer;
    std::vector<query::Query> queries;
    std::vector<double> truths;
    for (size_t qi = 0;
         qi < bundle.mixed_test.size() && qi < arm.max_queries; ++qi) {
      const workload::LabeledQuery& lq = bundle.mixed_test[qi];
      if (arm.iep != nullptr) {
        const auto expansion = arm.iep->Expansion(lq.query);
        if (!expansion.ok()) {
          ++arm.rejected;  // IEP blow-up guard (> max_terms DNF terms)
          continue;
        }
        arm.subqueries += expansion.value().subqueries;
      }
      queries.push_back(lq.query);
      truths.push_back(lq.card);
    }
    const std::vector<double> estimates =
        arm.estimator->EstimateBatch(queries).value();
    arm.answered = static_cast<int>(queries.size());
    for (size_t i = 0; i < estimates.size(); ++i) {
      arm.errors.push_back(ml::QError(truths[i], estimates[i]));
    }
    arm.seconds = timer.Seconds();
  }

  eval::TablePrinter table({"estimator", "answered", "rejected",
                            "subqueries/query", "mean", "median", "p99",
                            "total s"});
  for (Arm& arm : arms) {
    const ml::QErrorSummary s =
        ml::QErrorSummary::FromErrors(std::move(arm.errors));
    table.AddRow(
        {arm.label, std::to_string(arm.answered), std::to_string(arm.rejected),
         arm.iep == nullptr
             ? "1"
             : common::StrFormat(
                   "%.1f", arm.answered > 0
                               ? static_cast<double>(arm.subqueries) / arm.answered
                               : 0.0),
         eval::FormatQ(s.mean), eval::FormatQ(s.median), eval::FormatQ(s.p99),
         common::StrFormat("%.2f", arm.seconds)});
  }
  std::printf(
      "Section 6: Limited Disjunction Encoding vs the inclusion-exclusion "
      "principle (mixed forest workload)\n");
  table.Print(std::cout);
  std::printf(
      "\nIEP rejections are queries whose DNF expansion exceeds 12 terms "
      "(2^12 - 1 = 4095 subqueries) — the exponential blow-up the paper "
      "describes.\n");
}

}  // namespace
}  // namespace qfcard::bench

int main() {
  qfcard::bench::Run();
  return 0;
}
