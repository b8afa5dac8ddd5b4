// Ablations beyond the paper's tables, probing the design choices of
// Universal Conjunction Encoding called out in DESIGN.md:
//   1. partitioning: the paper's equi-width scheme vs equi-depth
//      (quantile) and v-optimal boundaries (Section 3.2 mentions
//      histogram-style partitioning as an extension);
//   2. the 1/2 value for partially qualifying partitions vs rounding up to 1;
//   3. the exact small-domain 0/1 mode on vs off.
// Model: GB; workload: forest conjunctive.

#include <iostream>
#include <memory>

#include "bench_common.h"

namespace qfcard::bench {
namespace {

void Run() {
  ForestBundle bundle = MakeForestBundle(/*need_conj=*/true,
                                         /*need_mixed=*/false);
  eval::TablePrinter table({"variant", "mean", "median", "99%", "max"});

  const auto run = [&](const std::string& label,
                       const featurize::ConjunctionOptions& opts) {
    const featurize::ConjunctionEncoding featurizer(bundle.schema, opts);
    const auto model = MakeModel("GB");
    const auto result_or = eval::RunQftModel(featurizer, *model,
                                             bundle.conj_train,
                                             bundle.conj_test);
    QFCARD_CHECK_OK(result_or.status());
    std::vector<std::string> row{label};
    AddSummaryCells(row, result_or.value().summary);
    table.AddRow(std::move(row));
  };

  run("baseline (equi-width, 1/2 values, exact small domains)",
      DefaultConjOptions());

  {
    featurize::ConjunctionOptions opts = DefaultConjOptions();
    opts.partitioner = std::make_shared<const featurize::Partitioner>(
        featurize::Partitioner::EquiDepth(*bundle.forest, opts.max_partitions));
    run("equi-depth partitioner", opts);
  }
  {
    featurize::ConjunctionOptions opts = DefaultConjOptions();
    opts.partitioner = std::make_shared<const featurize::Partitioner>(
        featurize::Partitioner::VOptimal(*bundle.forest, opts.max_partitions));
    run("v-optimal partitioner", opts);
  }
  {
    featurize::ConjunctionOptions opts = DefaultConjOptions();
    opts.per_attribute_partitions = featurize::SkewAwarePartitions(
        *bundle.forest, opts.max_partitions, /*boost=*/2);
    run("skew-aware per-attribute budgets", opts);
  }
  {
    featurize::ConjunctionOptions opts = DefaultConjOptions();
    opts.use_half_values = false;
    run("no 1/2 values (round partial partitions up)", opts);
  }
  {
    featurize::ConjunctionOptions opts = DefaultConjOptions();
    opts.exact_small_domains = false;
    run("no exact small-domain mode", opts);
  }
  {
    featurize::ConjunctionOptions opts = DefaultConjOptions();
    opts.append_attr_selectivity = false;
    run("no selectivity appendix", opts);
  }

  std::printf("Ablation: Universal Conjunction Encoding design choices "
              "(GB, forest conjunctive)\n");
  table.Print(std::cout);
}

}  // namespace
}  // namespace qfcard::bench

int main() {
  qfcard::bench::Run();
  return 0;
}
