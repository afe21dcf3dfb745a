#include "exec/primitives.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/exact_sum.h"
#include "exec/morsel.h"

namespace gpl {

namespace {

// The functional kernel bodies below are morsel-parallel on the host (see
// exec/morsel.h): they honor CurrentHostParallelism() and are bit-identical
// to the serial path at any thread count. Simulated timing is unaffected —
// it derives from the timing descriptors and observed cardinalities only.

class FilterKernel : public Kernel {
 public:
  explicit FilterKernel(ExprPtr predicate) : predicate_(std::move(predicate)) {
    timing_ = FilterTiming(predicate_->CostPerRow());
  }

  Result<Table> Process(const Table& input) override {
    return input.Gather(SelectIndices(*predicate_, input));
  }

 private:
  ExprPtr predicate_;
};

class ProjectKernel : public Kernel {
 public:
  explicit ProjectKernel(std::vector<ProjectedColumn> columns)
      : columns_(std::move(columns)) {
    double cost = 0.0;
    for (const ProjectedColumn& c : columns_) cost += c.expr->CostPerRow();
    timing_ = ProjectTiming(cost, static_cast<int>(columns_.size()));
  }

  Result<Table> Process(const Table& input) override {
    Table out(input.name());
    for (const ProjectedColumn& c : columns_) {
      GPL_RETURN_NOT_OK(
          out.AddColumn(c.name, EvaluateMorsels(*c.expr, input).ToColumn()));
    }
    return out;
  }

 private:
  std::vector<ProjectedColumn> columns_;
};

class HashBuildKernel : public Kernel {
 public:
  HashBuildKernel(std::vector<ExprPtr> key_exprs,
                  std::shared_ptr<HashJoinState> state)
      : key_exprs_(std::move(key_exprs)), state_(std::move(state)) {
    timing_ = HashBuildTiming(0);
  }

  void PrepareTiming() override {
    timing_.random_working_set_bytes = state_->table.byte_size();
  }

  Result<Table> Process(const Table& input) override {
    const std::vector<int64_t> keys = EvaluateJoinKeys(input, key_exprs_);
    const int64_t base = state_->build_rows_initialized
                             ? state_->build_rows.num_rows()
                             : 0;
    state_->table.Insert(keys, base);
    if (!state_->build_rows_initialized) {
      state_->build_rows = input;
      state_->build_rows_initialized = true;
    } else {
      GPL_RETURN_NOT_OK(state_->build_rows.AppendTable(input));
    }
    // The hash table materializes in global memory; keep the timing
    // descriptor's working set in sync for downstream probes.
    timing_.random_working_set_bytes = state_->table.byte_size();
    return Table();
  }

  void Reset() override { state_->Reset(); }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::shared_ptr<HashJoinState> state_;
};

class HashProbeKernel : public Kernel {
 public:
  HashProbeKernel(std::vector<ExprPtr> key_exprs,
                  std::shared_ptr<HashJoinState> state,
                  std::vector<std::string> build_payload)
      : key_exprs_(std::move(key_exprs)),
        state_(std::move(state)),
        build_payload_(std::move(build_payload)) {
    timing_ = HashProbeTiming(0);
  }

  void PrepareTiming() override {
    timing_.random_working_set_bytes = state_->probe_table().byte_size();
  }

  Result<Table> Process(const Table& input) override {
    timing_.random_working_set_bytes = state_->probe_table().byte_size();
    const std::vector<int64_t> keys = EvaluateJoinKeys(input, key_exprs_);
    std::vector<int64_t> probe_idx;
    std::vector<int64_t> build_idx;
    ProbeAll(state_->probe_table(), keys, &probe_idx, &build_idx);
    Table out = input.Gather(probe_idx);
    for (const std::string& name : build_payload_) {
      GPL_RETURN_NOT_OK(out.AddColumn(
          name, state_->probe_rows().GetColumn(name).Gather(build_idx)));
    }
    return out;
  }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::shared_ptr<HashJoinState> state_;
  std::vector<std::string> build_payload_;
};

// Names of the per-aggregate state columns in the partial wire format.
// Index-based so they can never collide with user group/aggregate names.
std::string PartialCountName(size_t a) { return "__pc" + std::to_string(a); }
std::string PartialMetaName(size_t a) { return "__pm" + std::to_string(a); }
std::string PartialValueName(size_t a) { return "__pv" + std::to_string(a); }
std::string PartialDigitName(size_t a, int j) {
  return "__pd" + std::to_string(a) + "_" + std::to_string(j);
}

// Meta-column encoding of an exact sum's sign and special flags.
int64_t EncodeSumMeta(const ExactFloat64Sum::Canonical& c) {
  int64_t meta = c.sign + 1;  // 0, 1, 2
  if (c.any_pos_inf) meta |= 4;
  if (c.any_neg_inf) meta |= 8;
  if (c.any_nan) meta |= 16;
  return meta;
}

ExactFloat64Sum::Canonical DecodeSumMeta(int64_t meta) {
  ExactFloat64Sum::Canonical c;
  c.sign = static_cast<int>(meta & 3) - 1;
  c.any_pos_inf = (meta & 4) != 0;
  c.any_neg_inf = (meta & 8) != 0;
  c.any_nan = (meta & 16) != 0;
  return c;
}

/// Dense ids for group-key tuples, in first-seen order: an open-addressing
/// hash index (linear probing, load <= 1/2) over a flat row-major key store.
class GroupIndex {
 public:
  explicit GroupIndex(size_t width) : width_(width) {}

  int32_t size() const { return num_groups_; }
  const int64_t* key(int32_t id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }

  /// ids[i] = the id of row i of `row_keys` (n rows of width() keys each),
  /// inserting unseen tuples.
  void Resolve(const int64_t* row_keys, int64_t n, int32_t* ids) {
    if (width_ == 0) {  // global aggregate: one group
      num_groups_ = 1;
      std::fill(ids, ids + n, 0);
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      ids[i] = FindOrInsert(row_keys + static_cast<size_t>(i) * width_);
    }
  }

  /// All ids, ordered by ascending lexicographic key tuple.
  std::vector<int32_t> SortedIds() const {
    std::vector<int32_t> ids(static_cast<size_t>(num_groups_));
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](int32_t x, int32_t y) {
      return std::lexicographical_compare(key(x), key(x) + width_, key(y),
                                          key(y) + width_);
    });
    return ids;
  }

 private:
  // Callers guarantee width_ >= 1.
  uint64_t Hash(const int64_t* k) const {
    uint64_t h = static_cast<uint64_t>(k[0]);
    for (size_t c = 1; c < width_; ++c) {
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(k[c]);
    }
    return JoinHashTable::HashKey(static_cast<int64_t>(h));
  }

  int32_t FindOrInsert(const int64_t* k) {
    if (2 * (static_cast<size_t>(num_groups_) + 1) > slots_.size()) Grow();
    const uint64_t h = Hash(k);
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      const int32_t id = slots_[s];
      if (id < 0) {
        slots_[s] = num_groups_;
        keys_.insert(keys_.end(), k, k + width_);
        hashes_.push_back(h);
        return num_groups_++;
      }
      if (hashes_[static_cast<size_t>(id)] == h &&
          std::equal(k, k + width_, key(id))) {
        return id;
      }
    }
  }

  void Grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), -1);
    const size_t mask = slots_.size() - 1;
    for (int32_t id = 0; id < num_groups_; ++id) {
      size_t s = hashes_[static_cast<size_t>(id)] & mask;
      while (slots_[s] >= 0) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  size_t width_;
  int32_t num_groups_ = 0;
  std::vector<int64_t> keys_;    ///< width_ keys per group id
  std::vector<uint64_t> hashes_;  ///< per group id
  std::vector<int32_t> slots_;    ///< group id per slot, -1 empty
};

/// Typed pointer to a partial-state column, or an error naming it.
template <typename T>
Result<const T*> StateColumn(const Table& partial, const std::string& name) {
  const int64_t idx = partial.ColumnIndex(name);
  const DataType want = Datum::DefaultType<T>();
  if (idx < 0 || partial.ColumnAt(idx).type() != want) {
    return Status::InvalidArgument("partial aggregate lacks " +
                                   std::string(DataTypeToString(want)) +
                                   " column " + name);
  }
  return Datum::Borrow(partial.ColumnAt(idx), 0, partial.num_rows())
      .template data<T>();
}

class AggregateKernel : public Kernel {
 public:
  AggregateKernel(std::vector<ProjectedColumn> group_by,
                  std::vector<AggSpec> aggregates, AggregatePhase phase)
      : group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        phase_(phase),
        groups_(group_by_.size()),
        states_(aggregates_.size()) {
    double cost = 0.0;
    for (const ProjectedColumn& g : group_by_) cost += g.expr->CostPerRow();
    for (const AggSpec& a : aggregates_) {
      if (a.arg != nullptr) cost += a.arg->CostPerRow();
    }
    timing_ = AggregateTiming(cost, static_cast<int>(aggregates_.size()));
  }

  Result<Table> Process(const Table& input) override {
    const int64_t n = input.num_rows();
    if (n == 0) return Table();

    // Group ids first (key evaluation is morsel-parallel), then one typed
    // column loop per aggregate over those ids, serial in row order. Double
    // sums go through an exact superaccumulator (exec/exact_sum.h), so the
    // accumulated state — and the rounded result — is independent of row
    // order and of how rows are partitioned across shards.
    std::vector<Datum> keys;
    keys.reserve(group_by_.size());
    for (const ProjectedColumn& g : group_by_) {
      keys.push_back(EvaluateMorsels(*g.expr, input));
    }
    const std::vector<int32_t> ids = ResolveGroups(keys, n);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      AggState& st = states_[a];
      if (spec.func != AggSpec::kMin && spec.func != AggSpec::kMax) {
        for (int64_t i = 0; i < n; ++i) {
          st.counts[static_cast<size_t>(ids[i])] += 1;
        }
      }
      if (spec.func == AggSpec::kCount) continue;
      GPL_CHECK(spec.arg != nullptr)
          << spec.output_name << " needs an argument";
      const Datum arg = EvaluateMorsels(*spec.arg, input);
      const int64_t stride = arg.is_scalar() ? 0 : 1;
      VisitTyped(arg, [&](const auto* v) {
        switch (spec.func) {
          case AggSpec::kSum:
          case AggSpec::kAvg:
            for (int64_t i = 0; i < n; ++i) {
              st.sums[static_cast<size_t>(ids[i])].Add(
                  static_cast<double>(v[i * stride]));
            }
            break;
          case AggSpec::kMin:
            for (int64_t i = 0; i < n; ++i) {
              double& m = st.values[static_cast<size_t>(ids[i])];
              m = std::min(m, static_cast<double>(v[i * stride]));
            }
            break;
          case AggSpec::kMax:
            for (int64_t i = 0; i < n; ++i) {
              double& m = st.values[static_cast<size_t>(ids[i])];
              m = std::max(m, static_cast<double>(v[i * stride]));
            }
            break;
          case AggSpec::kCount:
            break;
        }
      });
    }
    return Table();  // partial aggregation; emitted at Finish()
  }

  /// Merges one partial-aggregate table (the kPartial wire format) into the
  /// accumulated state. Used by CombinePartialAggregates(). Every state
  /// column is resolved to a typed pointer once per partial.
  Status IngestPartial(const Table& partial) {
    const int64_t n = partial.num_rows();
    if (n == 0) return Status::OK();  // empty shard: nothing to merge
    std::vector<Datum> keys;
    keys.reserve(group_by_.size());
    for (const ProjectedColumn& g : group_by_) {
      const int64_t idx = partial.ColumnIndex(g.name);
      if (idx < 0) {
        return Status::InvalidArgument("partial aggregate lacks group column " +
                                       g.name);
      }
      keys.push_back(Datum::Borrow(partial.ColumnAt(idx), 0, n));
    }
    const std::vector<int32_t> ids = ResolveGroups(keys, n);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggState& st = states_[a];
      switch (aggregates_[a].func) {
        case AggSpec::kSum:
        case AggSpec::kAvg: {
          GPL_ASSIGN_OR_RETURN(
              const int64_t* meta,
              StateColumn<int64_t>(partial, PartialMetaName(a)));
          std::array<const int64_t*, ExactFloat64Sum::kDigits> digits;
          for (int j = 0; j < ExactFloat64Sum::kDigits; ++j) {
            GPL_ASSIGN_OR_RETURN(
                digits[static_cast<size_t>(j)],
                StateColumn<int64_t>(partial, PartialDigitName(a, j)));
          }
          for (int64_t i = 0; i < n; ++i) {
            ExactFloat64Sum::Canonical c = DecodeSumMeta(meta[i]);
            for (size_t j = 0; j < digits.size(); ++j) {
              c.digits[j] = static_cast<uint64_t>(digits[j][i]);
            }
            st.sums[static_cast<size_t>(ids[i])].AddCanonical(c);
          }
          [[fallthrough]];
        }
        case AggSpec::kCount: {
          // Only these consume counts downstream (kCount's output, kAvg's
          // divide); min/max partials carry no count column at all.
          GPL_ASSIGN_OR_RETURN(
              const int64_t* counts,
              StateColumn<int64_t>(partial, PartialCountName(a)));
          for (int64_t i = 0; i < n; ++i) {
            st.counts[static_cast<size_t>(ids[i])] += counts[i];
          }
          break;
        }
        case AggSpec::kMin:
        case AggSpec::kMax: {
          GPL_ASSIGN_OR_RETURN(
              const double* values,
              StateColumn<double>(partial, PartialValueName(a)));
          const bool is_min = aggregates_[a].func == AggSpec::kMin;
          for (int64_t i = 0; i < n; ++i) {
            double& m = st.values[static_cast<size_t>(ids[i])];
            m = is_min ? std::min(m, values[i]) : std::max(m, values[i]);
          }
          break;
        }
      }
    }
    return Status::OK();
  }

  Result<Table> Finish() override {
    Table out("aggregate");
    // Groups are emitted in ascending key order (partials round-trip through
    // the same AsInt64 key extraction, so both phases agree).
    const std::vector<int32_t> order = groups_.SortedIds();
    const size_t num_groups = order.size();
    for (size_t g = 0; g < group_by_.size(); ++g) {
      const DataType type =
          group_types_.empty() ? DataType::kInt64 : group_types_[g];
      Column col(type, group_dicts_.empty() ? nullptr : group_dicts_[g]);
      const auto key = [&](size_t k) { return groups_.key(order[k])[g]; };
      switch (type) {
        case DataType::kInt32:
        case DataType::kDate:
        case DataType::kString:
          Fill(&col.data32(), num_groups,
               [&](size_t k) { return static_cast<int32_t>(key(k)); });
          break;
        case DataType::kInt64:
          Fill(&col.data64(), num_groups, key);
          break;
        case DataType::kFloat64:
          Fill(&col.dataf(), num_groups,
               [&](size_t k) { return static_cast<double>(key(k)); });
          break;
      }
      GPL_RETURN_NOT_OK(out.AddColumn(group_by_[g].name, std::move(col)));
    }
    if (phase_ == AggregatePhase::kPartial) {
      return FinishPartial(order, std::move(out));
    }
    // Aggregate columns.
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      const AggState& st = states_[a];
      if (spec.func == AggSpec::kCount) {
        Column col(DataType::kInt64);
        Fill(&col.data64(), num_groups, [&](size_t k) {
          return st.counts[static_cast<size_t>(order[k])];
        });
        GPL_RETURN_NOT_OK(out.AddColumn(spec.output_name, std::move(col)));
        continue;
      }
      Column col(DataType::kFloat64);
      Fill(&col.dataf(), num_groups, [&](size_t k) {
        const size_t id = static_cast<size_t>(order[k]);
        if (spec.func == AggSpec::kMin || spec.func == AggSpec::kMax) {
          return st.values[id];
        }
        double v = st.sums[id].Round();
        if (spec.func == AggSpec::kAvg && st.counts[id] > 0) {
          v /= static_cast<double>(st.counts[id]);
        }
        return v;
      });
      GPL_RETURN_NOT_OK(out.AddColumn(spec.output_name, std::move(col)));
    }
    return out;
  }

  void Reset() override {
    groups_ = GroupIndex(group_by_.size());
    states_.assign(aggregates_.size(), AggState());
    group_types_.clear();
    group_dicts_.clear();
  }

 private:
  /// Per-aggregate accumulators, indexed by group id. Each aggregate keeps
  /// only what it needs: sums for kSum/kAvg, running values for kMin/kMax,
  /// counts for kSum/kAvg/kCount.
  struct AggState {
    std::vector<ExactFloat64Sum> sums;
    std::vector<double> values;
    std::vector<int64_t> counts;
  };

  template <typename T, typename F>
  static void Fill(std::vector<T>* out, size_t n, F value) {
    out->resize(n);
    for (size_t k = 0; k < n; ++k) (*out)[k] = value(k);
  }

  /// Group id of every row, given the key columns of the batch; records the
  /// group schema on first use and sizes the accumulators for new groups.
  std::vector<int32_t> ResolveGroups(const std::vector<Datum>& keys,
                                     int64_t n) {
    if (group_types_.empty()) {
      for (const Datum& k : keys) {
        group_types_.push_back(k.type());
        group_dicts_.push_back(k.dictionary());
      }
    }
    // Row-major int64 key tuples (AsInt64 semantics; scalars have stride 0).
    const size_t width = keys.size();
    std::vector<int64_t> row_keys(static_cast<size_t>(n) * width);
    for (size_t g = 0; g < width; ++g) {
      const int64_t stride = keys[g].is_scalar() ? 0 : 1;
      VisitTyped(keys[g], [&](const auto* v) {
        for (int64_t i = 0; i < n; ++i) {
          row_keys[static_cast<size_t>(i) * width + g] =
              static_cast<int64_t>(v[i * stride]);
        }
      });
    }
    std::vector<int32_t> ids(static_cast<size_t>(n));
    groups_.Resolve(row_keys.data(), n, ids.data());
    const size_t num_groups = static_cast<size_t>(groups_.size());
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggState& st = states_[a];
      switch (aggregates_[a].func) {
        case AggSpec::kSum:
        case AggSpec::kAvg:
          st.sums.resize(num_groups);
          [[fallthrough]];
        case AggSpec::kCount:
          st.counts.resize(num_groups, 0);
          break;
        case AggSpec::kMin:
          st.values.resize(num_groups,
                           std::numeric_limits<double>::infinity());
          break;
        case AggSpec::kMax:
          st.values.resize(num_groups,
                           -std::numeric_limits<double>::infinity());
          break;
      }
    }
    return ids;
  }

  // Appends the per-aggregate state columns to the group columns already in
  // `out`, producing the partial wire format; `order` is the group order.
  Result<Table> FinishPartial(const std::vector<int32_t>& order, Table out) {
    const size_t num_groups = order.size();
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      const AggState& st = states_[a];
      if (spec.func == AggSpec::kMin || spec.func == AggSpec::kMax) {
        // No count column: min/max combine by value alone, and Finish never
        // consults a count for them — shipping one would be pure gather
        // traffic.
        Column val(DataType::kFloat64);
        Fill(&val.dataf(), num_groups, [&](size_t k) {
          return st.values[static_cast<size_t>(order[k])];
        });
        GPL_RETURN_NOT_OK(out.AddColumn(PartialValueName(a), std::move(val)));
        continue;
      }
      Column counts(DataType::kInt64);
      Fill(&counts.data64(), num_groups, [&](size_t k) {
        return st.counts[static_cast<size_t>(order[k])];
      });
      GPL_RETURN_NOT_OK(out.AddColumn(PartialCountName(a), std::move(counts)));
      if (spec.func != AggSpec::kCount) {
        std::vector<ExactFloat64Sum::Canonical> canon;
        canon.reserve(num_groups);
        for (int32_t id : order) {
          canon.push_back(st.sums[static_cast<size_t>(id)].ToCanonical());
        }
        Column meta(DataType::kInt64);
        Fill(&meta.data64(), num_groups,
             [&](size_t k) { return EncodeSumMeta(canon[k]); });
        GPL_RETURN_NOT_OK(out.AddColumn(PartialMetaName(a), std::move(meta)));
        for (int j = 0; j < ExactFloat64Sum::kDigits; ++j) {
          Column digit(DataType::kInt64);
          Fill(&digit.data64(), num_groups, [&](size_t k) {
            return static_cast<int64_t>(
                canon[k].digits[static_cast<size_t>(j)]);
          });
          GPL_RETURN_NOT_OK(
              out.AddColumn(PartialDigitName(a, j), std::move(digit)));
        }
      }
    }
    return out;
  }

  std::vector<ProjectedColumn> group_by_;
  std::vector<AggSpec> aggregates_;
  AggregatePhase phase_;
  GroupIndex groups_;
  std::vector<AggState> states_;  ///< one per aggregate
  std::vector<DataType> group_types_;
  std::vector<std::shared_ptr<Dictionary>> group_dicts_;
};

class SortKernel : public Kernel {
 public:
  explicit SortKernel(std::vector<SortKey> keys) : keys_(std::move(keys)) {
    timing_ = SortTiming();
  }

  Result<Table> Process(const Table& input) override {
    if (!initialized_) {
      accumulated_ = input;
      initialized_ = true;
    } else {
      GPL_RETURN_NOT_OK(accumulated_.AppendTable(input));
    }
    return Table();
  }

  Result<Table> Finish() override {
    if (!initialized_) return Table();
    const int64_t n = accumulated_.num_rows();
    std::vector<int64_t> indices(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;

    std::vector<const Column*> cols;
    for (const SortKey& k : keys_) {
      cols.push_back(&accumulated_.GetColumn(k.column));
    }
    std::stable_sort(indices.begin(), indices.end(),
                     [&](int64_t a, int64_t b) {
                       for (size_t k = 0; k < keys_.size(); ++k) {
                         const Column& c = *cols[k];
                         int cmp = 0;
                         if (c.type() == DataType::kString) {
                           cmp = c.StringAt(a).compare(c.StringAt(b));
                         } else if (c.type() == DataType::kFloat64) {
                           const double va = c.DoubleAt(a), vb = c.DoubleAt(b);
                           cmp = va < vb ? -1 : (va > vb ? 1 : 0);
                         } else {
                           const int64_t va = c.AsInt64(a), vb = c.AsInt64(b);
                           cmp = va < vb ? -1 : (va > vb ? 1 : 0);
                         }
                         if (cmp != 0) {
                           return keys_[k].descending ? cmp > 0 : cmp < 0;
                         }
                       }
                       return a < b;
                     });
    return accumulated_.Gather(indices);
  }

  void Reset() override {
    accumulated_ = Table();
    initialized_ = false;
  }

 private:
  std::vector<SortKey> keys_;
  Table accumulated_;
  bool initialized_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

KernelPtr MakeFilterKernel(ExprPtr predicate) {
  return std::make_shared<FilterKernel>(std::move(predicate));
}

KernelPtr MakeProjectKernel(std::vector<ProjectedColumn> columns) {
  return std::make_shared<ProjectKernel>(std::move(columns));
}

KernelPtr MakeHashBuildKernel(std::vector<ExprPtr> key_exprs,
                              std::shared_ptr<HashJoinState> state) {
  return std::make_shared<HashBuildKernel>(std::move(key_exprs), std::move(state));
}

KernelPtr MakeHashProbeKernel(std::vector<ExprPtr> key_exprs,
                              std::shared_ptr<HashJoinState> state,
                              std::vector<std::string> build_payload) {
  return std::make_shared<HashProbeKernel>(std::move(key_exprs), std::move(state),
                                           std::move(build_payload));
}

KernelPtr MakeAggregateKernel(std::vector<ProjectedColumn> group_by,
                              std::vector<AggSpec> aggregates,
                              AggregatePhase phase) {
  return std::make_shared<AggregateKernel>(std::move(group_by),
                                           std::move(aggregates), phase);
}

std::vector<std::string> PartialAggregateColumns(
    const std::vector<ProjectedColumn>& group_by,
    const std::vector<AggSpec>& aggregates) {
  std::vector<std::string> out;
  for (const ProjectedColumn& g : group_by) out.push_back(g.name);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    switch (aggregates[a].func) {
      case AggSpec::kSum:
      case AggSpec::kAvg:
        out.push_back(PartialCountName(a));
        out.push_back(PartialMetaName(a));
        for (int j = 0; j < ExactFloat64Sum::kDigits; ++j) {
          out.push_back(PartialDigitName(a, j));
        }
        break;
      case AggSpec::kCount:
        out.push_back(PartialCountName(a));
        break;
      case AggSpec::kMin:
      case AggSpec::kMax:
        // Value only — min/max partials carry no count column.
        out.push_back(PartialValueName(a));
        break;
    }
  }
  return out;
}

Result<Table> CombinePartialAggregates(
    const std::vector<ProjectedColumn>& group_by,
    const std::vector<AggSpec>& aggregates,
    const std::vector<Table>& partials) {
  AggregateKernel combiner(group_by, aggregates, AggregatePhase::kComplete);
  for (const Table& partial : partials) {
    GPL_RETURN_NOT_OK(combiner.IngestPartial(partial));
  }
  return combiner.Finish();
}

KernelPtr MakeSortKernel(std::vector<SortKey> keys) {
  return std::make_shared<SortKernel>(std::move(keys));
}

// ---------------------------------------------------------------------------
// KBE-only primitives
// ---------------------------------------------------------------------------

Column ComputeFlags(const Table& input, const ExprPtr& predicate) {
  return EvaluateMorsels(*predicate, input).ToColumn();
}

Column PrefixSum(const Column& flags, int64_t* total) {
  Column out(DataType::kInt32);
  const int64_t n = flags.size();
  if (CurrentHostParallelism() <= 1 || n < 2 * kMorselRows) {
    out.Reserve(n);
    int32_t running = 0;
    for (int64_t i = 0; i < n; ++i) {
      out.AppendInt32(running);
      running += flags.Int32At(i) != 0 ? 1 : 0;
    }
    *total = running;
    return out;
  }
  // Scan-then-propagate over fixed morsel boundaries: per-morsel flag counts,
  // an exclusive scan of the counts, then a parallel fill seeded with each
  // morsel's base. Integer arithmetic — exactly the serial running sum.
  const int64_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<int32_t> counts(static_cast<size_t>(num_morsels), 0);
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    int32_t count = 0;
    for (int64_t i = b; i < e; ++i) count += flags.Int32At(i) != 0 ? 1 : 0;
    counts[static_cast<size_t>(b / kMorselRows)] = count;
  });
  std::vector<int32_t> bases(static_cast<size_t>(num_morsels) + 1, 0);
  for (int64_t m = 0; m < num_morsels; ++m) {
    bases[static_cast<size_t>(m) + 1] =
        bases[static_cast<size_t>(m)] + counts[static_cast<size_t>(m)];
  }
  std::vector<int32_t>& data = out.data32();
  data.resize(static_cast<size_t>(n));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    int32_t running = bases[static_cast<size_t>(b / kMorselRows)];
    for (int64_t i = b; i < e; ++i) {
      data[static_cast<size_t>(i)] = running;
      running += flags.Int32At(i) != 0 ? 1 : 0;
    }
  });
  *total = bases[static_cast<size_t>(num_morsels)];
  return out;
}

Table ScatterRows(const Table& input, const Column& flags, const Column& offsets) {
  GPL_CHECK(offsets.size() == flags.size());
  // offsets[i] is the output slot; gathering the selected rows in input
  // order reproduces the scatter result.
  return input.Gather(SelectRows(flags.size(), [&](int64_t begin, int64_t len) {
    return Datum::Borrow(flags, begin, len);
  }));
}

// ---------------------------------------------------------------------------
// Timing descriptors
// ---------------------------------------------------------------------------

sim::KernelTimingDesc FilterTiming(double predicate_cost) {
  sim::KernelTimingDesc d;
  d.name = "k_map";
  d.compute_inst_per_row = 10.0 + 2.0 * predicate_cost;
  d.mem_inst_per_row = 2.0;
  d.private_bytes_per_item = 48;
  d.local_bytes_per_item = 0;
  return d;
}

sim::KernelTimingDesc ProjectTiming(double expr_cost, int num_outputs) {
  sim::KernelTimingDesc d;
  d.name = "k_project";
  d.compute_inst_per_row = 8.0 + 2.0 * expr_cost;
  d.mem_inst_per_row = 1.0 + 0.5 * num_outputs;
  d.private_bytes_per_item = 64;
  return d;
}

sim::KernelTimingDesc PrefixSumTiming() {
  sim::KernelTimingDesc d;
  d.name = "k_prefix_sum";
  d.compute_inst_per_row = 24.0;
  d.mem_inst_per_row = 3.0;
  d.private_bytes_per_item = 32;
  d.local_bytes_per_item = 8;  // local-memory scan tree
  d.blocking = true;
  return d;
}

sim::KernelTimingDesc ScatterTiming(int num_columns) {
  sim::KernelTimingDesc d;
  d.name = "k_scatter";
  d.compute_inst_per_row = 8.0;
  d.mem_inst_per_row = 1.5 + 0.5 * num_columns;
  d.private_bytes_per_item = 32;
  d.blocking = true;  // writes the compacted result to global memory
  return d;
}

sim::KernelTimingDesc HashBuildTiming(int64_t hash_table_bytes) {
  sim::KernelTimingDesc d;
  d.name = "k_hash_build";
  d.compute_inst_per_row = 36.0;
  d.mem_inst_per_row = 4.0;
  d.private_bytes_per_item = 64;
  d.local_bytes_per_item = 4;
  d.blocking = true;  // barrier after build (Section 3.2)
  d.random_access_fraction = 0.7;
  d.random_working_set_bytes = hash_table_bytes;
  return d;
}

sim::KernelTimingDesc HashProbeTiming(int64_t hash_table_bytes) {
  sim::KernelTimingDesc d;
  d.name = "k_hash_probe";
  d.compute_inst_per_row = 40.0;
  d.mem_inst_per_row = 5.0;
  d.private_bytes_per_item = 64;
  d.random_access_fraction = 0.5;
  d.random_working_set_bytes = hash_table_bytes;
  return d;
}

sim::KernelTimingDesc AggregateTiming(double expr_cost, int num_aggregates) {
  sim::KernelTimingDesc d;
  d.name = "k_reduce";
  d.compute_inst_per_row = 18.0 + 2.0 * expr_cost + 4.0 * num_aggregates;
  d.mem_inst_per_row = 2.0;
  d.private_bytes_per_item = 96;
  d.local_bytes_per_item = 16;  // local partials
  d.random_access_fraction = 0.2;
  d.random_working_set_bytes = 4096;
  return d;
}

sim::KernelTimingDesc ScanAggregateTiming() {
  sim::KernelTimingDesc d;
  d.name = "k_scan_reduce";
  d.compute_inst_per_row = 30.0;
  d.mem_inst_per_row = 4.0;
  d.private_bytes_per_item = 64;
  d.local_bytes_per_item = 32;
  d.blocking = true;  // KBE aggregation materializes the scan array
  return d;
}

sim::KernelTimingDesc SortTiming() {
  sim::KernelTimingDesc d;
  d.name = "k_sort";
  d.compute_inst_per_row = 64.0;
  d.mem_inst_per_row = 8.0;
  d.private_bytes_per_item = 64;
  d.local_bytes_per_item = 32;
  d.blocking = true;
  return d;
}

}  // namespace gpl
