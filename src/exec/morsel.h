#ifndef GPL_EXEC_MORSEL_H_
#define GPL_EXEC_MORSEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/expr.h"
#include "exec/hash_table.h"
#include "storage/table.h"

namespace gpl {

/// Morsel-driven parallel helpers for the functional bodies of the exec
/// primitives. Each helper is bit-identical to the corresponding serial
/// loop at any CurrentHostParallelism(): work is split at fixed kMorselRows
/// boundaries (common/thread_pool.h), each morsel evaluates its row range
/// of the borrowed input (Expr::EvaluateRows, no slicing copy), per-morsel
/// intermediates are written to position-derived slots, and results are
/// stitched back together in morsel order. Expression evaluation is pure and
/// per-row (exec/expr.cc never mutates its input or a Dictionary during
/// evaluation), so splitting it is safe.
///
/// These affect *host* wall-clock only; the simulated kernel timing is
/// derived from the KernelTimingDescs and cardinalities, never from how the
/// host computed the result.

/// expr's values over all rows of `input`, morsel-parallel. A bare column
/// reference borrows the input column and a literal stays a scalar; anything
/// else is computed into an owned column.
Datum EvaluateMorsels(const Expr& expr, const Table& input);

/// Row indices i in [0, n) whose flag is nonzero (AsInt64 test), ascending.
/// `flags(begin, len)` yields the flags of rows [begin, begin+len).
std::vector<int64_t> SelectRows(
    int64_t n, const std::function<Datum(int64_t, int64_t)>& flags);

/// Row indices where `predicate` is nonzero, ascending — the functional body
/// of map/select (filter).
std::vector<int64_t> SelectIndices(const Expr& predicate, const Table& input);

/// Packed int64 join keys for 1- or 2-key equi-joins (the hash build/probe
/// key pipeline; see JoinHashTable::PackKeys).
std::vector<int64_t> EvaluateJoinKeys(const Table& input,
                                      const std::vector<ExprPtr>& key_exprs);

/// Probes `table` with every key in order, appending (probe row, build row)
/// pairs exactly as the serial probe loop does: ascending probe row, chain
/// order within a probe row.
void ProbeAll(const JoinHashTable& table, const std::vector<int64_t>& keys,
              std::vector<int64_t>* probe_idx, std::vector<int64_t>* build_idx);

}  // namespace gpl

#endif  // GPL_EXEC_MORSEL_H_
