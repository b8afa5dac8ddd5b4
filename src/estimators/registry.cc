#include "estimators/registry.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/str_util.h"
#include "estimators/ml_estimator.h"
#include "estimators/sampling.h"
#include "estimators/true_card.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "featurize/mscn_featurizer.h"
#include "ml/dataset.h"
#include "ml/linear.h"
#include "obs/metrics.h"

namespace qfcard::est {

namespace {

std::string Lowered(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// A non-empty per-attribute budget vector must name one budget per
// attribute of the featurizer's schema; the layout step would otherwise
// fall back to max_partitions without a word.
common::Status CheckBudgets(const EstimatorOptions& opts, int num_attributes) {
  const size_t budgets = opts.conj.per_attribute_partitions.size();
  if (budgets == 0 || static_cast<int>(budgets) == num_attributes) {
    return common::Status::Ok();
  }
  obs::IncrementCounter("registry.errors", "kind=bad-options");
  return common::Status::InvalidArgument(common::StrFormat(
      "registry: %zu per-attribute partition budgets for a featurizer "
      "schema of %d attributes",
      budgets, num_attributes));
}

common::StatusOr<std::unique_ptr<CardinalityEstimator>> MakeMscn(
    const storage::Catalog& catalog, const EstimatorOptions& opts,
    featurize::MscnFeaturizer::PredMode mode) {
  featurize::GlobalFeatureSchema global =
      featurize::GlobalFeatureSchema::FromCatalog(catalog);
  QFCARD_RETURN_IF_ERROR(
      CheckBudgets(opts, global.schema().num_attributes()));
  featurize::MscnFeaturizer featurizer(&catalog, opts.schema_graph, mode,
                                       opts.conj, std::move(global));
  return std::unique_ptr<CardinalityEstimator>(
      std::make_unique<MscnEstimator>(std::move(featurizer), opts.mscn));
}

// "; did you mean \"gb+conjunctive\"?" when a registered name is within a
// few edits of the typo, "" otherwise — appended to unknown-name errors so
// a fat-fingered --model flag points at the fix instead of a 15-name list.
std::string DidYouMean(const std::string& name) {
  const std::string suggestion =
      common::ClosestMatch(name, RegisteredEstimators());
  if (suggestion.empty()) return "";
  return "; did you mean \"" + suggestion + "\"?";
}

common::StatusOr<const storage::Table*> ResolveTable(
    const storage::Catalog& catalog, const EstimatorOptions& opts) {
  if (!opts.table.empty()) return catalog.GetTable(opts.table);
  if (catalog.num_tables() == 0) {
    obs::IncrementCounter("registry.errors", "kind=bad-catalog");
    return common::Status::InvalidArgument(
        "registry: catalog has no tables to featurize");
  }
  return &catalog.table(0);
}

}  // namespace

common::StatusOr<std::unique_ptr<CardinalityEstimator>> MakeEstimator(
    const std::string& name, const storage::Catalog& catalog,
    const EstimatorOptions& opts) {
  const std::string key = Lowered(name);

  if (key == "postgres") {
    QFCARD_ASSIGN_OR_RETURN(PostgresStyleEstimator built,
                            PostgresStyleEstimator::Build(&catalog,
                                                          opts.postgres));
    return std::unique_ptr<CardinalityEstimator>(
        std::make_unique<PostgresStyleEstimator>(std::move(built)));
  }
  if (key == "sampling") {
    return std::unique_ptr<CardinalityEstimator>(
        std::make_unique<SamplingEstimator>(&catalog, opts.sampling_fraction,
                                            opts.sampling_seed));
  }
  if (key == "true") {
    return std::unique_ptr<CardinalityEstimator>(
        std::make_unique<TrueCardEstimator>(&catalog));
  }
  if (key == "mscn") {
    return MakeMscn(catalog, opts,
                    featurize::MscnFeaturizer::PredMode::kPerPredicate);
  }
  if (key == "mscn+range") {
    return MakeMscn(catalog, opts,
                    featurize::MscnFeaturizer::PredMode::kPerAttributeRange);
  }
  if (key == "mscn+conj") {
    return MakeMscn(catalog, opts,
                    featurize::MscnFeaturizer::PredMode::kPerAttributeQft);
  }

  // Everything else is "<model>+<qft>".
  const size_t plus = key.find('+');
  if (plus == std::string::npos || plus == 0 || plus + 1 >= key.size()) {
    obs::IncrementCounter("registry.errors", "kind=unknown-estimator");
    return common::Status::InvalidArgument(
        "registry: unknown estimator \"" + name + "\"" + DidYouMean(name) +
        "; registered names: " + common::Join(RegisteredEstimators(), ", "));
  }
  const std::string model_key = key.substr(0, plus);
  const std::string qft_key = key.substr(plus + 1);

  featurize::QftKind kind;
  if (qft_key == "simple") {
    kind = featurize::QftKind::kSimple;
  } else if (qft_key == "range") {
    kind = featurize::QftKind::kRange;
  } else if (qft_key == "conj" || qft_key == "conjunctive") {
    kind = featurize::QftKind::kConjunctive;
  } else if (qft_key == "complex" || qft_key == "comp") {
    kind = featurize::QftKind::kComplex;
  } else {
    obs::IncrementCounter("registry.errors", "kind=unknown-qft");
    return common::Status::InvalidArgument(
        "registry: unknown QFT \"" + qft_key +
        "\" (expected simple/range/conj|conjunctive/complex|comp)" +
        DidYouMean(name));
  }

  std::unique_ptr<ml::Model> model = MakeModel(model_key, opts);
  if (model == nullptr) {
    obs::IncrementCounter("registry.errors", "kind=unknown-model");
    return common::Status::InvalidArgument(
        "registry: unknown model \"" + model_key +
        "\" (expected gb/nn/linear)" + DidYouMean(name) +
        "; registered names: " + common::Join(RegisteredEstimators(), ", "));
  }

  QFCARD_ASSIGN_OR_RETURN(const storage::Table* table,
                          ResolveTable(catalog, opts));
  featurize::FeatureSchema schema = featurize::FeatureSchema::FromTable(*table);
  QFCARD_RETURN_IF_ERROR(CheckBudgets(opts, schema.num_attributes()));
  std::unique_ptr<featurize::Featurizer> featurizer =
      featurize::MakeFeaturizer(kind, std::move(schema), opts.conj);
  return std::unique_ptr<CardinalityEstimator>(std::make_unique<MlEstimator>(
      std::move(featurizer), std::move(model)));
}

std::unique_ptr<ml::Model> MakeModel(const std::string& model_key,
                                     const EstimatorOptions& opts) {
  const std::string key = Lowered(model_key);
  if (key == "gb") return std::make_unique<ml::GradientBoosting>(opts.gbm);
  if (key == "nn") return std::make_unique<ml::FeedForwardNet>(opts.nn);
  if (key == "linear") return std::make_unique<ml::LinearRegression>();
  return nullptr;
}

std::vector<std::string> RegisteredEstimators() {
  std::vector<std::string> names = {"postgres", "sampling", "true",
                                    "mscn",     "mscn+range", "mscn+conj"};
  for (const char* model : {"gb", "nn", "linear"}) {
    for (const char* qft : {"simple", "range", "conjunctive", "complex"}) {
      names.push_back(std::string(model) + "+" + qft);
    }
  }
  return names;
}

const std::vector<EstimatorInfo>& RegisteredEstimatorInfos() {
  static const std::vector<EstimatorInfo>* const kInfos = [] {
    auto* infos = new std::vector<EstimatorInfo>;
    for (const std::string& name : RegisteredEstimators()) {
      EstimatorInfo info;
      info.name = name;
      if (name == "postgres") {
        // Synopses with join-selectivity and NDV-product GROUP BY handling.
        info.kind = "stats";
        info.supports_joins = true;
        info.supports_disjunctions = true;
        info.group_aware = true;
      } else if (name == "sampling") {
        // Per-query Bernoulli scan: single-table only, counts filtered rows.
        info.kind = "sampling";
        info.supports_disjunctions = true;
      } else if (name == "true") {
        info.kind = "oracle";
        info.supports_joins = true;
        info.supports_disjunctions = true;
        info.group_aware = true;
      } else if (name.rfind("mscn", 0) == 0) {
        // Joins enter through the schema-graph set encoding; only the
        // per-attribute QFT mode (mscn+conj) encodes disjunctions.
        info.kind = "mscn";
        info.needs_training = true;
        info.supports_joins = true;
        info.supports_disjunctions = (name == "mscn+conj");
      } else {
        // <model>+<qft>: single-table QFTs; GROUP BY only enters through
        // the GroupByAppendFeaturizer decorator, which the registry does
        // not apply. Only the complex QFT (Limited Disjunction Encoding)
        // featurizes mixed queries.
        info.kind = "ml";
        info.needs_training = true;
        info.supports_disjunctions =
            name.size() > 8 &&
            name.compare(name.size() - 8, 8, "+complex") == 0;
      }
      infos->push_back(std::move(info));
    }
    return infos;
  }();
  return *kInfos;
}

common::StatusOr<const EstimatorInfo*> EstimatorInfoFor(
    const std::string& name) {
  std::string key = Lowered(name);
  // Normalize the QFT aliases MakeEstimator accepts to the canonical names
  // RegisteredEstimators() lists.
  const size_t plus = key.find('+');
  if (plus != std::string::npos) {
    const std::string qft = key.substr(plus + 1);
    if (qft == "conj" && key.rfind("mscn", 0) != 0) {
      key = key.substr(0, plus + 1) + "conjunctive";
    } else if (qft == "comp") {
      key = key.substr(0, plus + 1) + "complex";
    }
  }
  for (const EstimatorInfo& info : RegisteredEstimatorInfos()) {
    if (info.name == key) return &info;
  }
  obs::IncrementCounter("registry.errors", "kind=unknown-estimator");
  return common::Status::NotFound(
      "registry: unknown estimator \"" + name + "\"" + DidYouMean(name) +
      "; registered names: " + common::Join(RegisteredEstimators(), ", "));
}

}  // namespace qfcard::est
