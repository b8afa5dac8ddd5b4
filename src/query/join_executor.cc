#include "query/join_executor.h"

#include <unordered_map>
#include <utility>

#include "query/executor.h"

namespace qfcard::query {

namespace {

// Calls on_match(probe tuple, build tuple) for every pair that agrees on
// every join edge between the two inputs, in probe scan order and, per
// probe tuple, build scan order.
template <typename OnMatch>
common::Status ForEachMatch(const JoinEngine& engine, const TupleSet& probe,
                            const TupleSet& build, OnMatch&& on_match) {
  struct Key {
    size_t probe_pos;
    const storage::Column* probe_col;
    size_t build_pos;
    const storage::Column* build_col;
  };
  std::vector<Key> keys;
  for (const JoinPredicate& j : engine.query().joins) {
    for (const auto& [p, b] : {std::pair(j.left, j.right),
                               std::pair(j.right, j.left)}) {
      const int pp = probe.PosOf(p.table);
      const int bp = build.PosOf(b.table);
      if (pp < 0 || bp < 0) continue;
      keys.push_back({static_cast<size_t>(pp),
                      &engine.table(p.table).column(p.column),
                      static_cast<size_t>(bp),
                      &engine.table(b.table).column(b.column)});
      break;
    }
  }
  if (keys.empty()) {
    return common::Status::InvalidArgument(
        "join graph is disconnected (cross products unsupported)");
  }
  const auto value = [](const TupleSet& side, size_t tuple, size_t pos,
                        const storage::Column* col) {
    return col->Get(side.rows[tuple * side.stride() + pos]);
  };

  // qfcard-lint: ok(unordered-container): lookup-only hash-join build side.
  // Output order is probe scan order; per-key match lists append in build
  // scan order; the map itself is never iterated.
  std::unordered_map<double, std::vector<int32_t>> hashed;  // key -> tuples
  hashed.reserve(build.count());
  for (size_t b = 0; b < build.count(); ++b) {
    hashed[value(build, b, keys[0].build_pos, keys[0].build_col)].push_back(
        static_cast<int32_t>(b));
  }
  for (size_t p = 0; p < probe.count(); ++p) {
    const auto it =
        hashed.find(value(probe, p, keys[0].probe_pos, keys[0].probe_col));
    if (it == hashed.end()) continue;
    for (const int32_t b : it->second) {
      const size_t bt = static_cast<size_t>(b);
      bool ok = true;
      for (size_t k = 1; k < keys.size() && ok; ++k) {
        ok = value(probe, p, keys[k].probe_pos, keys[k].probe_col) ==
             value(build, bt, keys[k].build_pos, keys[k].build_col);
      }
      if (ok) on_match(p, bt);
    }
  }
  return common::Status::Ok();
}

// The first slot outside `joined` that shares a join edge with it, or -1.
int NextSlot(const Query& q, const TupleSet& joined) {
  for (int t = 0; t < static_cast<int>(q.tables.size()); ++t) {
    if (joined.PosOf(t) >= 0) continue;
    for (const JoinPredicate& j : q.joins) {
      if ((j.left.table == t && joined.PosOf(j.right.table) >= 0) ||
          (j.right.table == t && joined.PosOf(j.left.table) >= 0)) {
        return t;
      }
    }
  }
  return -1;
}

// Left-deep fold over a query of two or more tables: starting from slot 0,
// each step probes the joined set with the scan of the first unjoined slot
// connected to it. Returns the last step's (probe, build) unjoined, for the
// caller to materialize or count.
common::StatusOr<std::pair<TupleSet, TupleSet>> LeftDeep(
    const JoinEngine& engine) {
  const size_t n = engine.query().tables.size();
  QFCARD_ASSIGN_OR_RETURN(TupleSet joined, engine.Scan(0));
  for (size_t step = 1;; ++step) {
    const int next = NextSlot(engine.query(), joined);
    if (next < 0) {
      return common::Status::InvalidArgument(
          "join graph is disconnected (cross products unsupported)");
    }
    QFCARD_ASSIGN_OR_RETURN(TupleSet build, engine.Scan(next));
    if (step + 1 == n) {
      return std::make_pair(std::move(joined), std::move(build));
    }
    QFCARD_ASSIGN_OR_RETURN(joined, engine.HashJoin(joined, build));
  }
}

}  // namespace

int TupleSet::PosOf(int slot) const {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == slot) return static_cast<int>(i);
  }
  return -1;
}

common::StatusOr<JoinEngine> JoinEngine::Open(const storage::Catalog& catalog,
                                              const Query& q) {
  QFCARD_RETURN_IF_ERROR(ValidateQuery(q, catalog));
  std::vector<const storage::Table*> tables;
  for (const TableRef& ref : q.tables) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* t, catalog.GetTable(ref.name));
    tables.push_back(t);
  }
  return JoinEngine(&q, std::move(tables));
}

common::StatusOr<TupleSet> JoinEngine::Scan(int slot) const {
  if (slot < 0 || slot >= static_cast<int>(tables_.size())) {
    return common::Status::OutOfRange("table slot out of range");
  }
  TupleSet out;
  out.slots.push_back(slot);
  QFCARD_ASSIGN_OR_RETURN(out.rows, Executor::Filter(table(slot), *q_, slot));
  return out;
}

common::StatusOr<TupleSet> JoinEngine::HashJoin(const TupleSet& probe,
                                                const TupleSet& build) const {
  TupleSet out;
  out.slots = probe.slots;
  out.slots.insert(out.slots.end(), build.slots.begin(), build.slots.end());
  const size_t ps = probe.stride();
  const size_t bs = build.stride();
  const auto append = [&](size_t p, size_t b) {
    const auto probe_tuple = probe.rows.begin() + static_cast<long>(p * ps);
    const auto build_tuple = build.rows.begin() + static_cast<long>(b * bs);
    out.rows.insert(out.rows.end(), probe_tuple,
                    probe_tuple + static_cast<long>(ps));
    out.rows.insert(out.rows.end(), build_tuple,
                    build_tuple + static_cast<long>(bs));
  };
  QFCARD_RETURN_IF_ERROR(ForEachMatch(*this, probe, build, append));
  return out;
}

common::StatusOr<JoinCount> JoinEngine::CountResult(
    const TupleSet& probe, const TupleSet* build) const {
  // Where each grouping column lives: a position of the probe or the build
  // tuple.
  struct GroupRef {
    bool in_build;
    size_t pos;
    const storage::Column* col;
  };
  std::vector<GroupRef> group;
  for (const ColumnRef& g : q_->group_by) {
    const int pp = probe.PosOf(g.table);
    const int bp = build == nullptr ? -1 : build->PosOf(g.table);
    if (pp < 0 && bp < 0) {
      return common::Status::InvalidArgument(
          "GROUP BY column outside the joined tables");
    }
    group.push_back({pp < 0, static_cast<size_t>(pp < 0 ? bp : pp),
                     &table(g.table).column(g.column)});
  }

  JoinCount count;
  std::vector<double> keys;  // row-major, group.size() values per tuple
  const auto count_tuple = [&](size_t p, size_t b) {
    ++count.tuples;
    for (const GroupRef& g : group) {
      const TupleSet& side = g.in_build ? *build : probe;
      const size_t tuple = g.in_build ? b : p;
      keys.push_back(g.col->Get(side.rows[tuple * side.stride() + g.pos]));
    }
  };
  if (build == nullptr) {
    for (size_t p = 0; p < probe.count(); ++p) count_tuple(p, 0);
  } else {
    QFCARD_RETURN_IF_ERROR(ForEachMatch(*this, probe, *build, count_tuple));
  }
  if (group.empty()) {
    count.result = count.tuples;
    return count;
  }
  count.result = CountDistinctKeys(keys, group.size());
  return count;
}

common::StatusOr<int64_t> JoinExecutor::Count(const storage::Catalog& catalog,
                                              const Query& q) {
  QFCARD_ASSIGN_OR_RETURN(const JoinEngine engine,
                          JoinEngine::Open(catalog, q));
  if (q.tables.size() == 1) return Executor::Count(engine.table(0), q);
  QFCARD_ASSIGN_OR_RETURN(const auto last, LeftDeep(engine));
  QFCARD_ASSIGN_OR_RETURN(const JoinCount count,
                          engine.CountResult(last.first, &last.second));
  return count.result;
}

common::StatusOr<storage::Table> JoinExecutor::Materialize(
    const storage::Catalog& catalog,
    const std::vector<std::string>& table_names, const SchemaGraph& graph) {
  Query q;
  for (const std::string& name : table_names) {
    q.tables.push_back(TableRef{name, name});
  }
  QFCARD_RETURN_IF_ERROR(graph.PopulateJoins(catalog, q));
  QFCARD_ASSIGN_OR_RETURN(const JoinEngine engine,
                          JoinEngine::Open(catalog, q));
  TupleSet tuples;
  if (q.tables.size() == 1) {
    QFCARD_ASSIGN_OR_RETURN(tuples, engine.Scan(0));
  } else {
    QFCARD_ASSIGN_OR_RETURN(const auto last, LeftDeep(engine));
    QFCARD_ASSIGN_OR_RETURN(tuples, engine.HashJoin(last.first, last.second));
  }

  // Output column order follows table_names; names are "<table>.<column>".
  storage::Table result(SubSchemaKey(table_names));
  const size_t stride = tuples.stride();
  for (int t = 0; t < static_cast<int>(table_names.size()); ++t) {
    const size_t pos = static_cast<size_t>(tuples.PosOf(t));
    const storage::Table& src = engine.table(t);
    for (int c = 0; c < src.num_columns(); ++c) {
      const storage::Column& src_col = src.column(c);
      storage::Column col(q.tables[static_cast<size_t>(t)].name + "." +
                              src_col.name(),
                          src_col.type());
      col.Reserve(tuples.count());
      for (size_t i = pos; i < tuples.rows.size(); i += stride) {
        col.Append(src_col.Get(tuples.rows[i]));
      }
      if (src_col.has_dictionary()) col.SetDictionary(src_col.dictionary());
      QFCARD_RETURN_IF_ERROR(result.AddColumn(std::move(col)));
    }
  }
  QFCARD_RETURN_IF_ERROR(result.Validate());
  return result;
}

}  // namespace qfcard::query
