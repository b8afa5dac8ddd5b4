#include "featurize/conjunction.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace qfcard::featurize {

namespace {

// The distinct values one clause excludes with <> (Algorithm 1, line 16),
// kept sorted. Values compare with `<`, so -0.0 and 0.0 are one value (NaN
// literals are rejected before they get here). The first kInline values
// live inline; past that the set moves to this thread's spill buffer,
// which keeps its capacity, so only a thread's first oversized clause
// allocates. At most one set per thread is live at a time: clauses are
// encoded one after another and never recursively.
class ExcludedValues {
 public:
  void Insert(double v) {
    double* const begin = data();
    double* const end = begin + size_;
    double* pos = std::lower_bound(begin, end, v);
    if (pos != end && !(v < *pos)) return;  // already present
    const size_t at = static_cast<size_t>(pos - begin);
    if (spill_ == nullptr && size_ == kInline) {
      spill_ = &SpillBuffer();
      spill_->assign(inline_.begin(), inline_.end());
    }
    if (spill_ != nullptr) {
      spill_->insert(spill_->begin() + static_cast<std::ptrdiff_t>(at), v);
    } else {
      std::copy_backward(pos, end, end + 1);
      *pos = v;
    }
    ++size_;
  }

  // How many of the values lie in [lo, hi].
  int CountWithin(double lo, double hi) const {
    const double* const begin =
        spill_ != nullptr ? spill_->data() : inline_.data();
    return static_cast<int>(std::count_if(
        begin, begin + size_, [&](double v) { return v >= lo && v <= hi; }));
  }

 private:
  static constexpr size_t kInline = 8;

  static std::vector<double>& SpillBuffer() {
    thread_local std::vector<double> buffer;
    return buffer;
  }

  double* data() { return spill_ != nullptr ? spill_->data() : inline_.data(); }

  std::array<double, kInline> inline_{};
  size_t size_ = 0;
  std::vector<double>* spill_ = nullptr;
};

// Encodes one conjunctive clause over `attr` into out[0 .. layout.n),
// following Algorithm 1 for a single attribute, and stores the
// per-attribute uniformity selectivity estimate (Algorithm 1's gray lines)
// into `*selectivity` unless it is null.
common::Status EncodeClauseForAttr(const AttributeInfo& attr,
                                   const PartitionLayout& layout,
                                   const ConjunctionOptions& opts,
                                   const query::ConjunctiveClause& clause,
                                   float* out, double* selectivity) {
  const int n_a = layout.n;
  std::fill(out, out + n_a, 1.0f);
  const float half = opts.use_half_values ? 0.5f : 1.0f;
  // Exact mode: every partition is a single integral value, so entries can
  // be decided exactly as 0/1 (Section 3.2, last paragraph).
  const bool exact = opts.exact_small_domains && attr.integral &&
                     (attr.max - attr.min + 1.0) <=
                         static_cast<double>(n_a) + 0.5;

  // Bookkeeping for the per-attribute selectivity estimate (gray lines of
  // Algorithm 1): tightest bounds plus excluded values.
  double min_a = attr.min;
  double max_a = attr.max;
  ExcludedValues nots;

  for (const query::SimplePredicate& p : clause.preds) {
    if (std::isnan(p.value)) {
      return common::Status::InvalidArgument(
          "partition-based encodings reject a NaN literal");
    }
    const int idx = layout.IndexOf(attr, p.value);
    const bool in_domain = p.value >= attr.min && p.value <= attr.max;
    if (!exact) {
      // Line 5: the partition containing the literal partially qualifies.
      if (in_domain && out[idx] == 1.0f) out[idx] = half;
    }
    switch (p.op) {
      case query::CmpOp::kEq:
        if (!in_domain) {
          // Literal outside the domain: nothing qualifies.
          std::fill(out, out + n_a, 0.0f);
        } else {
          for (int i = 0; i < n_a; ++i) {
            if (i != idx) out[i] = 0.0f;
          }
          if (exact) out[idx] = std::min(out[idx], 1.0f);
        }
        min_a = std::max(min_a, p.value);
        max_a = std::min(max_a, p.value);
        break;
      case query::CmpOp::kGt:
      case query::CmpOp::kGe: {
        // Line 9: partitions entirely below the literal cannot qualify.
        int zero_end = idx;  // exclusive
        if (exact && p.op == query::CmpOp::kGt && in_domain) {
          zero_end = idx + 1;  // the literal's own value is excluded
        }
        if (p.value > attr.max) zero_end = n_a;
        for (int i = 0; i < std::min(zero_end, n_a); ++i) out[i] = 0.0f;
        // Line 10 (gray).
        const double bound =
            (p.op == query::CmpOp::kGt && attr.integral) ? p.value + 1 : p.value;
        min_a = std::max(min_a, bound);
        break;
      }
      case query::CmpOp::kLt:
      case query::CmpOp::kLe: {
        // Line 12: partitions entirely above the literal cannot qualify.
        int zero_begin = idx + 1;
        if (exact && p.op == query::CmpOp::kLt && in_domain) {
          zero_begin = idx;
        }
        if (p.value < attr.min) zero_begin = 0;
        for (int i = std::max(zero_begin, 0); i < n_a; ++i) out[i] = 0.0f;
        // Line 13 (gray).
        const double bound =
            (p.op == query::CmpOp::kLt && attr.integral) ? p.value - 1 : p.value;
        max_a = std::min(max_a, bound);
        break;
      }
      case query::CmpOp::kNe:
        if (exact && in_domain) out[idx] = 0.0f;
        // Line 16 (gray).
        if (selectivity != nullptr) nots.Insert(p.value);
        break;
    }
  }

  if (selectivity != nullptr) {
    // Lines 17-20 (gray): r_A = qualifying portion of the domain under the
    // uniformity assumption.
    const double c_a = nots.CountWithin(min_a, max_a);
    const double width = attr.integral ? (max_a - min_a + 1.0 - c_a)
                                       : (max_a - min_a - c_a);
    const double r_a = std::max(width, 0.0);
    *selectivity = std::clamp(r_a / attr.DomainSize(), 0.0, 1.0);
  }
  return common::Status::Ok();
}

// Boundaries of `part`'s entry for `attr`, an attribute of `schema`, or null.
// An entry named like the attribute wins; a bare entry "c" also matches
// "T.c" when no other attribute of `schema` ends in ".c".
const std::vector<double>* EntryFor(const Partitioner& part,
                                    const FeatureSchema& schema,
                                    const AttributeInfo& attr) {
  const std::vector<std::string>& names = part.attr_names();
  const auto find = [&](std::string_view name) -> const std::vector<double>* {
    const auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? nullptr
                             : &part.boundaries()[static_cast<size_t>(
                                   it - names.begin())];
  };
  if (const std::vector<double>* exact = find(attr.name)) return exact;
  const size_t dot = attr.name.rfind('.');
  if (dot == std::string::npos) return nullptr;
  const std::string_view suffix = std::string_view(attr.name).substr(dot);
  const auto same_column = std::count_if(
      schema.attrs().begin(), schema.attrs().end(),
      [&](const AttributeInfo& other) { return other.name.ends_with(suffix); });
  return same_column == 1 ? find(suffix.substr(1)) : nullptr;
}

}  // namespace

namespace internal {

common::Status EncodeCompoundForAttr(const AttributeInfo& attr,
                                     const PartitionLayout& layout,
                                     const ConjunctionOptions& opts,
                                     const query::CompoundPredicate& cp,
                                     float* out) {
  const int n_a = layout.n;
  // Algorithm 2: V starts all-zero (line 3) and merges each clause by
  // entrywise max (line 6). The first clause is written straight into
  // `out`; only later clauses need scratch.
  if (cp.disjuncts.empty()) std::fill(out, out + n_a, 0.0f);
  double merged_sel = 0.0;
  // Later clauses go through this thread's scratch row. It only grows, so
  // once it fits the widest attribute, encoding allocates nothing.
  thread_local std::vector<float> scratch;
  if (cp.disjuncts.size() > 1 && scratch.size() < static_cast<size_t>(n_a)) {
    scratch.resize(static_cast<size_t>(n_a));
  }
  for (size_t k = 0; k < cp.disjuncts.size(); ++k) {
    float* dst = k == 0 ? out : scratch.data();
    double sel = 1.0;
    QFCARD_RETURN_IF_ERROR(EncodeClauseForAttr(
        attr, layout, opts, cp.disjuncts[k], dst,
        opts.append_attr_selectivity ? &sel : nullptr));
    if (k > 0) {
      for (int i = 0; i < n_a; ++i) out[i] = std::max(out[i], scratch[i]);
    }
    merged_sel = std::max(merged_sel, sel);
  }
  if (opts.append_attr_selectivity) out[n_a] = static_cast<float>(merged_sel);
  return common::Status::Ok();
}

}  // namespace internal

std::vector<PartitionLayout> ResolveLayouts(const FeatureSchema& schema,
                                            const ConjunctionOptions& opts) {
  const bool per_attr =
      static_cast<int>(opts.per_attribute_partitions.size()) ==
      schema.num_attributes();
  std::vector<PartitionLayout> layouts;
  layouts.reserve(static_cast<size_t>(schema.num_attributes()));
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& attr = schema.attr(a);
    const std::vector<double>* bounds =
        opts.partitioner != nullptr ? EntryFor(*opts.partitioner, schema, attr)
                                    : nullptr;
    if (bounds != nullptr) {
      layouts.push_back(
          PartitionLayout{static_cast<int>(bounds->size()) + 1, *bounds});
      continue;
    }
    const int budget =
        per_attr ? opts.per_attribute_partitions[static_cast<size_t>(a)]
                 : opts.max_partitions;
    // The paper's n_A = min(n, max(A) - min(A) + 1) for integral attributes.
    int n = std::max(1, budget);
    if (attr.integral) {
      const double domain = attr.max - attr.min + 1.0;
      n = static_cast<int>(
          std::max(1.0, std::min(static_cast<double>(budget), domain)));
    }
    layouts.push_back(PartitionLayout{n, {}});
  }
  return layouts;
}

ConjunctionEncoding::ConjunctionEncoding(FeatureSchema schema,
                                         ConjunctionOptions opts,
                                         bool allow_disjunctions)
    : schema_(std::move(schema)),
      opts_(std::move(opts)),
      layouts_(ResolveLayouts(schema_, opts_)),
      allow_disjunctions_(allow_disjunctions) {
  offsets_.reserve(layouts_.size());
  int offset = 0;
  for (const PartitionLayout& layout : layouts_) {
    offsets_.push_back(offset);
    offset += layout.n + (opts_.append_attr_selectivity ? 1 : 0);
  }
  dim_ = offset;
}

common::Status ConjunctionEncoding::FeaturizeInto(const query::Query& q,
                                                  float* out) const {
  // Line 1: attributes start all-one (no predicate -> full domain
  // qualifies); the selectivity appendix starts at 1.
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    float* block = out + AttrOffset(a);
    std::fill(block, block + AttrEntries(a), 1.0f);
    if (opts_.append_attr_selectivity) block[AttrEntries(a)] = 1.0f;
  }
  for (const query::CompoundPredicate& cp : q.predicates) {
    QFCARD_RETURN_IF_ERROR(schema_.CheckAttr(cp.col.column));
    if (!allow_disjunctions_ && cp.disjuncts.size() != 1) {
      return common::Status::InvalidArgument(
          "Universal Conjunction Encoding does not support disjunctions; "
          "use Limited Disjunction Encoding");
    }
    const int a = cp.col.column;
    QFCARD_RETURN_IF_ERROR(internal::EncodeCompoundForAttr(
        schema_.attr(a), layouts_[static_cast<size_t>(a)], opts_, cp,
        out + AttrOffset(a)));
  }
  return common::Status::Ok();
}

}  // namespace qfcard::featurize
