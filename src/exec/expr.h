#ifndef GPL_EXEC_EXPR_H_
#define GPL_EXEC_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/table.h"

namespace gpl {

/// Interface through which expressions obtain column statistics for
/// selectivity estimation (implemented by plan::Catalog).
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;
  /// Returns false if the column is unknown.
  virtual bool GetColumnStats(const std::string& column, double* min_value,
                              double* max_value, int64_t* num_distinct) const = 0;
};

/// The values of an expression over a batch of rows, as typed physical data.
/// A Datum is one of three things:
///   - a borrowed row range of an input column (a bare column reference
///     costs no copy; the Datum must not outlive the input table and never
///     writes to it);
///   - an owned column an operator computed;
///   - a broadcast scalar (a numeric or date literal): every row reads
///     element 0, i.e. the data pointer has stride 0.
/// Physical element types are those of Column: int32_t for kInt32, kDate and
/// kString (dictionary codes), int64_t for kInt64, double for kFloat64.
class Datum {
 public:
  /// Rows [begin, begin+len) of `column`, borrowed.
  static Datum Borrow(const Column& column, int64_t begin, int64_t len);
  static Datum Own(Column column);
  /// A broadcast scalar standing for `rows` rows. `T` is the physical type:
  /// int32_t (with `type` kInt32 or kDate), int64_t or double.
  template <typename T>
  static Datum Scalar(T value, int64_t rows,
                      DataType type = DefaultType<T>());

  DataType type() const { return type_; }
  int64_t size() const { return rows_; }
  bool is_scalar() const { return kind_ == Kind::kScalar; }
  /// Shared dictionary of string data (null otherwise).
  const std::shared_ptr<Dictionary>& dictionary() const;

  /// Typed data; element i of row i, or element 0 for every row when
  /// is_scalar(). `T` must be the physical type of type().
  template <typename T>
  const T* data() const;

  /// All rows as a column: borrowed rows are copied, scalars broadcast.
  Column ToColumn() &&;

  template <typename T>
  static constexpr DataType DefaultType() {
    if constexpr (std::is_same_v<T, int32_t>) return DataType::kInt32;
    if constexpr (std::is_same_v<T, int64_t>) return DataType::kInt64;
    return DataType::kFloat64;
  }

 private:
  enum class Kind { kBorrowed, kOwned, kScalar };

  Datum(Kind kind, DataType type, int64_t rows)
      : kind_(kind), type_(type), rows_(rows) {}

  Kind kind_;
  DataType type_;
  int64_t rows_;
  const Column* borrowed_ = nullptr;  ///< kBorrowed
  int64_t begin_ = 0;                 ///< kBorrowed: first row
  std::optional<Column> owned_;       ///< kOwned
  union {
    int32_t i32;
    int64_t i64;
    double f64;
  } scalar_{};                        ///< kScalar
};

/// Calls f(const T* data) with the typed data of `d`: T is int32_t, int64_t
/// or double, chosen once per batch by the physical type.
template <typename F>
decltype(auto) VisitTyped(const Datum& d, F&& f) {
  switch (d.type()) {
    case DataType::kInt64:
      return f(d.data<int64_t>());
    case DataType::kFloat64:
      return f(d.data<double>());
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      break;
  }
  return f(d.data<int32_t>());
}

/// Scalar expression over table columns, evaluated column-at-a-time (the
/// functional half of map/project kernels). Expressions also report an
/// instruction-cost estimate per row, which feeds the kernels' timing
/// descriptors (the "program analysis" input of the cost model).
///
/// Evaluation contract (DESIGN.md decision 11): operands are borrowed from
/// the input and never mutated; literals are broadcast scalars; each
/// operator picks its operand physical types once per batch and runs one
/// typed loop per operand-type pair; int<->double conversions are exactly
/// those of Column::AsDouble / Column::AsInt64 (static_cast, so AND/OR/NOT
/// and CASE conditions truncate float operands toward zero).
class Expr {
 public:
  virtual ~Expr() = default;

  /// Result type when evaluated against `input`.
  virtual DataType OutputType(const Table& input) const = 0;

  /// Evaluates rows [begin, begin+len) of `input`. Boolean results are
  /// kInt32 0/1. The result may borrow columns of `input`.
  virtual Datum EvaluateRows(const Table& input, int64_t begin,
                             int64_t len) const = 0;

  /// Evaluates over all rows of `input` into a column of its own.
  Column Evaluate(const Table& input) const {
    return EvaluateRows(input, 0, input.num_rows()).ToColumn();
  }

  /// Estimated compute instructions per row.
  virtual double CostPerRow() const = 0;

  virtual std::string ToString() const = 0;

  /// Estimated fraction of rows for which this (boolean) expression is true.
  /// Non-predicates return 1.
  virtual double EstimateSelectivity(const StatsProvider& stats) const {
    (void)stats;
    return 1.0;
  }

  /// If this is a plain column reference, stores its name and returns true.
  virtual bool IsColumnRef(std::string* name) const {
    (void)name;
    return false;
  }

  /// If this is a numeric/date literal, stores its value (widened to double)
  /// and returns true.
  virtual bool IsLiteral(double* value) const {
    (void)value;
    return false;
  }

  /// Appends the names of all columns this expression reads.
  virtual void CollectColumnRefs(std::vector<std::string>* out) const {
    (void)out;
  }
};

using ExprPtr = std::shared_ptr<const Expr>;

// ---- Factory functions (the public expression-building API) ----

/// Reference to a column by name.
ExprPtr Col(std::string name);

ExprPtr LitInt(int64_t value);
ExprPtr LitFloat(double value);
/// Date literal from "YYYY-MM-DD" (aborts on malformed text).
ExprPtr LitDate(const std::string& ymd);
/// String literal; compares against dictionary-encoded columns.
ExprPtr LitString(std::string value);

ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);

ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);

ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);

/// EXTRACT(YEAR FROM date_expr), used by Q7/Q8/Q9.
ExprPtr YearOf(ExprPtr date_expr);

/// CASE WHEN cond THEN a ELSE b END, used by Q8/Q14.
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr);

/// a >= lo AND a < hi (half-open range, the common date filter shape).
ExprPtr InRange(ExprPtr a, ExprPtr lo, ExprPtr hi);

/// True when the dictionary-encoded string expression starts with `prefix`
/// (the LIKE 'PROMO%' test of Q14).
ExprPtr StrStartsWith(ExprPtr str_expr, std::string prefix);

// ---- Datum template members ----

template <typename T>
Datum Datum::Scalar(T value, int64_t rows, DataType type) {
  Datum d(Kind::kScalar, type, rows);
  if constexpr (std::is_same_v<T, int32_t>) {
    d.scalar_.i32 = value;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    d.scalar_.i64 = value;
  } else {
    static_assert(std::is_same_v<T, double>);
    d.scalar_.f64 = value;
  }
  return d;
}

template <typename T>
const T* Datum::data() const {
  const Column* column = kind_ == Kind::kOwned ? &*owned_ : borrowed_;
  if constexpr (std::is_same_v<T, int32_t>) {
    GPL_DCHECK(TypeWidth(type_) == 4);
    return kind_ == Kind::kScalar ? &scalar_.i32
                                  : column->data32().data() + begin_;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    GPL_DCHECK(type_ == DataType::kInt64);
    return kind_ == Kind::kScalar ? &scalar_.i64
                                  : column->data64().data() + begin_;
  } else {
    static_assert(std::is_same_v<T, double>);
    GPL_DCHECK(type_ == DataType::kFloat64);
    return kind_ == Kind::kScalar ? &scalar_.f64
                                  : column->dataf().data() + begin_;
  }
}

}  // namespace gpl

#endif  // GPL_EXEC_EXPR_H_
