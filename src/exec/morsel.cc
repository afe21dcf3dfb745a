#include "exec/morsel.h"

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace gpl {

namespace {

/// Parallel decomposition pays off only when there are at least two morsels
/// and the scope allows more than one thread.
bool RunSerial(int64_t rows) {
  return CurrentHostParallelism() <= 1 || rows < 2 * kMorselRows;
}

int64_t NumMorsels(int64_t rows) {
  return (rows + kMorselRows - 1) / kMorselRows;
}

}  // namespace

Datum EvaluateMorsels(const Expr& expr, const Table& input) {
  const int64_t n = input.num_rows();
  // Column references borrow and literals broadcast: there is nothing to
  // compute, so there is nothing to split.
  std::string column_name;
  double literal = 0.0;
  if (RunSerial(n) || expr.IsColumnRef(&column_name) ||
      expr.IsLiteral(&literal)) {
    return expr.EvaluateRows(input, 0, n);
  }
  const int64_t num_morsels = NumMorsels(n);
  std::vector<std::optional<Datum>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    parts[static_cast<size_t>(b / kMorselRows)] =
        expr.EvaluateRows(input, b, e - b);
  });
  Column out = std::move(*parts[0]).ToColumn();
  out.Reserve(n);
  for (int64_t m = 1; m < num_morsels; ++m) {
    GPL_CHECK_OK(out.AppendColumn(
        std::move(*parts[static_cast<size_t>(m)]).ToColumn()));
  }
  return Datum::Own(std::move(out));
}

namespace {

/// Appends base + i for every row i whose flag is nonzero (AsInt64 test),
/// branch-free.
void AppendSelected(const Datum& flags, int64_t base,
                    std::vector<int64_t>* out) {
  const int64_t n = flags.size();
  VisitTyped(flags, [&](const auto* f) {
    const int64_t stride = flags.is_scalar() ? 0 : 1;
    const size_t start = out->size();
    out->resize(start + static_cast<size_t>(n));
    int64_t* o = out->data() + start;
    int64_t k = 0;
    for (int64_t i = 0; i < n; ++i) {
      o[k] = base + i;
      k += static_cast<int64_t>(f[i * stride]) != 0 ? 1 : 0;
    }
    out->resize(start + static_cast<size_t>(k));
  });
}

}  // namespace

std::vector<int64_t> SelectRows(
    int64_t n, const std::function<Datum(int64_t, int64_t)>& flags) {
  std::vector<int64_t> indices;
  if (RunSerial(n)) {
    AppendSelected(flags(0, n), 0, &indices);
    return indices;
  }
  const int64_t num_morsels = NumMorsels(n);
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    AppendSelected(flags(b, e - b), b,
                   &parts[static_cast<size_t>(b / kMorselRows)]);
  });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  indices.reserve(total);
  for (const auto& part : parts) {
    indices.insert(indices.end(), part.begin(), part.end());
  }
  return indices;
}

std::vector<int64_t> SelectIndices(const Expr& predicate, const Table& input) {
  return SelectRows(input.num_rows(), [&](int64_t begin, int64_t len) {
    return predicate.EvaluateRows(input, begin, len);
  });
}

std::vector<int64_t> EvaluateJoinKeys(const Table& input,
                                      const std::vector<ExprPtr>& key_exprs) {
  GPL_CHECK(!key_exprs.empty() && key_exprs.size() <= 2)
      << "joins support one or two key expressions";
  const int64_t n = input.num_rows();
  std::vector<int64_t> keys(static_cast<size_t>(n));
  // Keys take AsInt64 semantics (static_cast); scalars have stride 0.
  const auto fill = [&](int64_t b, int64_t e) {
    const int64_t len = e - b;
    int64_t* out = keys.data() + b;
    const Datum k0 = key_exprs[0]->EvaluateRows(input, b, len);
    const int64_t s0 = k0.is_scalar() ? 0 : 1;
    VisitTyped(k0, [&](const auto* p0) {
      if (key_exprs.size() == 1) {
        for (int64_t i = 0; i < len; ++i) {
          out[i] = static_cast<int64_t>(p0[i * s0]);
        }
        return;
      }
      const Datum k1 = key_exprs[1]->EvaluateRows(input, b, len);
      const int64_t s1 = k1.is_scalar() ? 0 : 1;
      VisitTyped(k1, [&](const auto* p1) {
        for (int64_t i = 0; i < len; ++i) {
          out[i] = JoinHashTable::PackKeys(
              static_cast<int32_t>(static_cast<int64_t>(p0[i * s0])),
              static_cast<int32_t>(static_cast<int64_t>(p1[i * s1])));
        }
      });
    });
  };
  if (RunSerial(n)) {
    fill(0, n);
  } else {
    ParallelFor(0, n, kMorselRows, fill);
  }
  return keys;
}

void ProbeAll(const JoinHashTable& table, const std::vector<int64_t>& keys,
              std::vector<int64_t>* probe_idx,
              std::vector<int64_t>* build_idx) {
  const int64_t n = static_cast<int64_t>(keys.size());
  if (RunSerial(n)) {
    probe_idx->reserve(probe_idx->size() + static_cast<size_t>(n));
    build_idx->reserve(build_idx->size() + static_cast<size_t>(n));
    table.ProbeBatch(keys.data(), n, 0, probe_idx, build_idx);
    return;
  }
  const int64_t num_morsels = NumMorsels(n);
  struct MatchPart {
    std::vector<int64_t> probe;
    std::vector<int64_t> build;
  };
  std::vector<MatchPart> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    MatchPart& part = parts[static_cast<size_t>(b / kMorselRows)];
    part.probe.reserve(static_cast<size_t>(e - b));
    part.build.reserve(static_cast<size_t>(e - b));
    table.ProbeBatch(keys.data() + b, e - b, b, &part.probe, &part.build);
  });
  size_t total = 0;
  for (const MatchPart& part : parts) total += part.probe.size();
  probe_idx->reserve(probe_idx->size() + total);
  build_idx->reserve(build_idx->size() + total);
  for (const MatchPart& part : parts) {
    probe_idx->insert(probe_idx->end(), part.probe.begin(), part.probe.end());
    build_idx->insert(build_idx->end(), part.build.begin(), part.build.end());
  }
}

}  // namespace gpl
