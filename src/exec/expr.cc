#include "exec/expr.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>

#include "common/logging.h"
#include "tpch/date.h"

namespace gpl {

Datum Datum::Borrow(const Column& column, int64_t begin, int64_t len) {
  GPL_CHECK(begin >= 0 && len >= 0 && begin + len <= column.size())
      << "row range [" << begin << ", " << begin + len << ") of "
      << column.size();
  Datum d(Kind::kBorrowed, column.type(), len);
  d.borrowed_ = &column;
  d.begin_ = begin;
  return d;
}

Datum Datum::Own(Column column) {
  Datum d(Kind::kOwned, column.type(), column.size());
  d.owned_.emplace(std::move(column));
  return d;
}

const std::shared_ptr<Dictionary>& Datum::dictionary() const {
  static const std::shared_ptr<Dictionary> kNone;
  if (kind_ == Kind::kOwned) return owned_->dictionary();
  return kind_ == Kind::kBorrowed ? borrowed_->dictionary() : kNone;
}

Column Datum::ToColumn() && {
  switch (kind_) {
    case Kind::kOwned:
      return std::move(*owned_);
    case Kind::kBorrowed:
      return borrowed_->Slice(begin_, rows_);
    case Kind::kScalar:
      break;
  }
  Column out(type_);
  const size_t n = static_cast<size_t>(rows_);
  switch (type_) {
    case DataType::kInt64:
      out.data64().assign(n, scalar_.i64);
      break;
    case DataType::kFloat64:
      out.dataf().assign(n, scalar_.f64);
      break;
    default:
      out.data32().assign(n, scalar_.i32);
      break;
  }
  return out;
}

namespace {

bool IsFloat(DataType t) { return t == DataType::kFloat64; }

// ---- Typed loops ----
//
// The conversions below are exactly Column::AsInt64 / Column::AsDouble:
// plain static_casts, so a double truncates toward zero.

template <typename T>
int64_t ToInt64(T v) {
  return static_cast<int64_t>(v);
}

/// Domain of a binary operator: double when either side is float, int64
/// otherwise.
template <typename X, typename Y>
using CommonType =
    std::conditional_t<std::is_same_v<X, double> || std::is_same_v<Y, double>,
                       double, int64_t>;

template <typename T>
std::vector<T>& Buffer(Column& c) {
  if constexpr (std::is_same_v<T, int32_t>) {
    return c.data32();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return c.data64();
  } else {
    return c.dataf();
  }
}

/// out[i] = f(a[i]) over the rows of `a`; a scalar stays a scalar.
template <typename F>
Datum Map1(const Datum& a, F f) {
  return VisitTyped(a, [&](const auto* pa) {
    using R = decltype(f(pa[0]));
    const int64_t n = a.size();
    if (a.is_scalar()) return Datum::Scalar<R>(f(pa[0]), n);
    Column out(Datum::DefaultType<R>());
    std::vector<R>& buf = Buffer<R>(out);
    buf.resize(static_cast<size_t>(n));
    R* o = buf.data();
    for (int64_t i = 0; i < n; ++i) o[i] = f(pa[i]);
    return Datum::Own(std::move(out));
  });
}

/// out[i] = f(a[i], b[i]). The operand physical types are resolved once per
/// batch; a scalar operand is read once and broadcast, so each (type, type)
/// pair gets one branch-free loop per column/scalar shape.
template <typename F>
Datum Map2(const Datum& a, const Datum& b, F f) {
  return VisitTyped(a, [&](const auto* pa) {
    return VisitTyped(b, [&](const auto* pb) {
      using R = decltype(f(pa[0], pb[0]));
      const int64_t n = a.size();
      if (a.is_scalar() && b.is_scalar()) {
        return Datum::Scalar<R>(f(pa[0], pb[0]), n);
      }
      Column out(Datum::DefaultType<R>());
      std::vector<R>& buf = Buffer<R>(out);
      buf.resize(static_cast<size_t>(n));
      R* o = buf.data();
      if (a.is_scalar()) {
        const auto va = pa[0];
        for (int64_t i = 0; i < n; ++i) o[i] = f(va, pb[i]);
      } else if (b.is_scalar()) {
        const auto vb = pb[0];
        for (int64_t i = 0; i < n; ++i) o[i] = f(pa[i], vb);
      } else {
        for (int64_t i = 0; i < n; ++i) o[i] = f(pa[i], pb[i]);
      }
      return Datum::Own(std::move(out));
    });
  });
}

/// A comparison in the operands' CommonType; 0/1 int32 result.
template <typename Cmp>
Datum Compare(const Datum& a, const Datum& b, Cmp cmp) {
  return Map2(a, b, [cmp](auto x, auto y) -> int32_t {
    using C = CommonType<decltype(x), decltype(y)>;
    return cmp(static_cast<C>(x), static_cast<C>(y)) ? 1 : 0;
  });
}

/// Arithmetic in the operands' CommonType.
template <typename Op>
Datum Arithmetic(const Datum& a, const Datum& b, Op op) {
  return Map2(a, b, [op](auto x, auto y) {
    using C = CommonType<decltype(x), decltype(y)>;
    return op(static_cast<C>(x), static_cast<C>(y));
  });
}

struct DivOp {
  template <typename T>
  T operator()(T x, T y) const {
    return y == 0 ? T{0} : x / y;
  }
};

class ColumnRef : public Expr {
 public:
  explicit ColumnRef(std::string name) : name_(std::move(name)) {}

  DataType OutputType(const Table& input) const override {
    return input.GetColumn(name_).type();
  }

  Datum EvaluateRows(const Table& input, int64_t begin,
                     int64_t len) const override {
    return Datum::Borrow(input.GetColumn(name_), begin, len);
  }

  double CostPerRow() const override { return 0.0; }
  std::string ToString() const override { return name_; }

  bool IsColumnRef(std::string* name) const override {
    *name = name_;
    return true;
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class Literal : public Expr {
 public:
  static ExprPtr Int(int64_t v) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kInt64;
    e->int_ = v;
    return e;
  }
  static ExprPtr Float(double v) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kFloat64;
    e->float_ = v;
    return e;
  }
  static ExprPtr Date(int32_t days) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kDate;
    e->int_ = days;
    return e;
  }
  static ExprPtr String(std::string v) {
    auto e = std::make_shared<Literal>();
    e->type_ = DataType::kString;
    e->str_ = std::move(v);
    return e;
  }

  DataType OutputType(const Table&) const override { return type_; }

  Datum EvaluateRows(const Table&, int64_t, int64_t len) const override {
    switch (type_) {
      case DataType::kInt64:
        return Datum::Scalar(int_, len);
      case DataType::kFloat64:
        return Datum::Scalar(float_, len);
      case DataType::kDate:
        return Datum::Scalar(static_cast<int32_t>(int_), len, DataType::kDate);
      default:
        GPL_LOG(Fatal) << "string literals are only valid inside comparisons";
    }
    return Datum::Scalar(int32_t{0}, len);
  }

  double CostPerRow() const override { return 0.0; }
  std::string ToString() const override {
    switch (type_) {
      case DataType::kInt64:
        return std::to_string(int_);
      case DataType::kFloat64:
        return std::to_string(float_);
      case DataType::kDate:
        return date::Format(static_cast<int32_t>(int_));
      default:
        return "'" + str_ + "'";
    }
  }

  bool IsLiteral(double* value) const override {
    switch (type_) {
      case DataType::kInt64:
      case DataType::kDate:
        *value = static_cast<double>(int_);
        return true;
      case DataType::kFloat64:
        *value = float_;
        return true;
      default:
        return false;  // strings estimated via dictionary cardinality
    }
  }

  DataType type_ = DataType::kInt64;
  int64_t int_ = 0;
  double float_ = 0.0;
  std::string str_;
};

const Literal* StringLiteral(const Expr* e) {
  const auto* lit = dynamic_cast<const Literal*>(e);
  return lit != nullptr && lit->type_ == DataType::kString ? lit : nullptr;
}

enum class BinOp { kAdd, kSub, kMul, kDiv, kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr };

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

bool IsComparison(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinOp op, ExprPtr a, ExprPtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}

  DataType OutputType(const Table& input) const override {
    if (IsComparison(op_) || op_ == BinOp::kAnd || op_ == BinOp::kOr) {
      return DataType::kInt32;
    }
    const DataType ta = a_->OutputType(input);
    const DataType tb = b_->OutputType(input);
    if (IsFloat(ta) || IsFloat(tb)) return DataType::kFloat64;
    return DataType::kInt64;
  }

  Datum EvaluateRows(const Table& input, int64_t begin,
                     int64_t len) const override {
    // String equality against a literal: compare dictionary codes.
    if (IsComparison(op_)) {
      const Literal* str_lit = StringLiteral(b_.get());
      const Expr* col_side = a_.get();
      if (str_lit == nullptr) {
        str_lit = StringLiteral(a_.get());
        col_side = b_.get();
      }
      if (str_lit != nullptr) {
        GPL_CHECK(op_ == BinOp::kEq || op_ == BinOp::kNe)
            << "only =/<> are supported on strings (Ocelot-style workload)";
        const Datum codes = col_side->EvaluateRows(input, begin, len);
        GPL_CHECK(codes.type() == DataType::kString)
            << "string literal compared to non-string expression";
        const Datum code =
            Datum::Scalar(codes.dictionary()->Lookup(str_lit->str_), len);
        return op_ == BinOp::kEq ? Compare(codes, code, std::equal_to<>())
                                 : Compare(codes, code, std::not_equal_to<>());
      }
    }

    const Datum da = a_->EvaluateRows(input, begin, len);
    const Datum db = b_->EvaluateRows(input, begin, len);
    switch (op_) {
      case BinOp::kAdd: return Arithmetic(da, db, std::plus<>());
      case BinOp::kSub: return Arithmetic(da, db, std::minus<>());
      case BinOp::kMul: return Arithmetic(da, db, std::multiplies<>());
      case BinOp::kDiv: return Arithmetic(da, db, DivOp());
      case BinOp::kEq: return Compare(da, db, std::equal_to<>());
      case BinOp::kNe: return Compare(da, db, std::not_equal_to<>());
      case BinOp::kLt: return Compare(da, db, std::less<>());
      case BinOp::kLe: return Compare(da, db, std::less_equal<>());
      case BinOp::kGt: return Compare(da, db, std::greater<>());
      case BinOp::kGe: return Compare(da, db, std::greater_equal<>());
      case BinOp::kAnd:
        return Map2(da, db, [](auto x, auto y) -> int32_t {
          return (ToInt64(x) != 0) & (ToInt64(y) != 0);
        });
      case BinOp::kOr:
        return Map2(da, db, [](auto x, auto y) -> int32_t {
          return (ToInt64(x) != 0) | (ToInt64(y) != 0);
        });
    }
    GPL_LOG(Fatal) << "unknown binary operator";
    return da;
  }

  double CostPerRow() const override {
    return 1.0 + a_->CostPerRow() + b_->CostPerRow();
  }

  std::string ToString() const override {
    return "(" + a_->ToString() + " " + BinOpName(op_) + " " + b_->ToString() + ")";
  }

  double EstimateSelectivity(const StatsProvider& stats) const override {
    if (op_ == BinOp::kAnd) {
      const double sa = a_->EstimateSelectivity(stats);
      const double sb = b_->EstimateSelectivity(stats);
      // Two conditions on the same single column (e.g. a date range) are
      // perfectly anti-correlated intervals, not independent events.
      std::vector<std::string> refs_a, refs_b;
      a_->CollectColumnRefs(&refs_a);
      b_->CollectColumnRefs(&refs_b);
      if (refs_a.size() == 1 && refs_a == refs_b) {
        return std::max(0.0001, sa + sb - 1.0);
      }
      return sa * sb;
    }
    if (op_ == BinOp::kOr) {
      const double sa = a_->EstimateSelectivity(stats);
      const double sb = b_->EstimateSelectivity(stats);
      return sa + sb - sa * sb;
    }
    if (!IsComparison(op_)) return 1.0;

    // Column-vs-literal comparisons use column statistics.
    std::string column;
    double literal = 0.0;
    bool col_left = true;
    if (a_->IsColumnRef(&column) && b_->IsLiteral(&literal)) {
      col_left = true;
    } else if (b_->IsColumnRef(&column) && a_->IsLiteral(&literal)) {
      col_left = false;
    } else if (op_ == BinOp::kEq &&
               (a_->IsColumnRef(&column) || b_->IsColumnRef(&column))) {
      // Equality against a string literal (IsLiteral returns false for
      // strings): 1 / ndv.
      double mn = 0, mx = 0;
      int64_t ndv = 0;
      if (stats.GetColumnStats(column, &mn, &mx, &ndv) && ndv > 0) {
        return 1.0 / static_cast<double>(ndv);
      }
      return 0.1;
    } else {
      return 0.33;  // column-vs-column or complex comparison: default guess
    }

    double mn = 0, mx = 0;
    int64_t ndv = 0;
    if (!stats.GetColumnStats(column, &mn, &mx, &ndv)) return 0.33;
    switch (op_) {
      case BinOp::kEq:
        return ndv > 0 ? 1.0 / static_cast<double>(ndv) : 0.1;
      case BinOp::kNe:
        return ndv > 0 ? 1.0 - 1.0 / static_cast<double>(ndv) : 0.9;
      default: {
        if (mx <= mn) return 0.5;
        double frac_below = (literal - mn) / (mx - mn);  // P(col < literal)
        frac_below = std::clamp(frac_below, 0.0, 1.0);
        const bool less =
            col_left ? (op_ == BinOp::kLt || op_ == BinOp::kLe)
                     : (op_ == BinOp::kGt || op_ == BinOp::kGe);
        return less ? frac_below : 1.0 - frac_below;
      }
    }
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    a_->CollectColumnRefs(out);
    b_->CollectColumnRefs(out);
  }

 private:
  BinOp op_;
  ExprPtr a_;
  ExprPtr b_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr a) : a_(std::move(a)) {}

  DataType OutputType(const Table&) const override { return DataType::kInt32; }

  Datum EvaluateRows(const Table& input, int64_t begin,
                     int64_t len) const override {
    return Map1(a_->EvaluateRows(input, begin, len),
                [](auto x) -> int32_t { return ToInt64(x) == 0 ? 1 : 0; });
  }

  double CostPerRow() const override { return 1.0 + a_->CostPerRow(); }
  std::string ToString() const override { return "NOT " + a_->ToString(); }

  double EstimateSelectivity(const StatsProvider& stats) const override {
    return 1.0 - a_->EstimateSelectivity(stats);
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    a_->CollectColumnRefs(out);
  }

 private:
  ExprPtr a_;
};

class YearExpr : public Expr {
 public:
  explicit YearExpr(ExprPtr a) : a_(std::move(a)) {}

  DataType OutputType(const Table&) const override { return DataType::kInt32; }

  Datum EvaluateRows(const Table& input, int64_t begin,
                     int64_t len) const override {
    const Datum days = a_->EvaluateRows(input, begin, len);
    GPL_CHECK(days.type() == DataType::kDate)
        << "YearOf needs a date expression";
    return Map1(days, [](auto d) -> int32_t {
      return date::Year(static_cast<int32_t>(d));
    });
  }

  double CostPerRow() const override { return 4.0 + a_->CostPerRow(); }
  std::string ToString() const override {
    return "YEAR(" + a_->ToString() + ")";
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    a_->CollectColumnRefs(out);
  }

 private:
  ExprPtr a_;
};

class CaseExpr : public Expr {
 public:
  CaseExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : cond_(std::move(cond)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}

  DataType OutputType(const Table& input) const override {
    const DataType tt = then_->OutputType(input);
    const DataType te = else_->OutputType(input);
    if (IsFloat(tt) || IsFloat(te)) return DataType::kFloat64;
    return DataType::kInt64;
  }

  Datum EvaluateRows(const Table& input, int64_t begin,
                     int64_t len) const override {
    const Datum dc = cond_->EvaluateRows(input, begin, len);
    const Datum dt = then_->EvaluateRows(input, begin, len);
    const Datum de = else_->EvaluateRows(input, begin, len);
    const bool flt = IsFloat(dt.type()) || IsFloat(de.type());
    // Scalar operands have stride 0.
    const int64_t sc = dc.is_scalar() ? 0 : 1;
    const int64_t st = dt.is_scalar() ? 0 : 1;
    const int64_t se = de.is_scalar() ? 0 : 1;
    const auto select = [&](auto result_tag) {
      using R = decltype(result_tag);
      return VisitTyped(dc, [&](const auto* pc) {
        return VisitTyped(dt, [&](const auto* pt) {
          return VisitTyped(de, [&](const auto* pe) {
            Column out(Datum::DefaultType<R>());
            std::vector<R>& buf = Buffer<R>(out);
            buf.resize(static_cast<size_t>(len));
            R* o = buf.data();
            for (int64_t i = 0; i < len; ++i) {
              o[i] = ToInt64(pc[i * sc]) != 0 ? static_cast<R>(pt[i * st])
                                              : static_cast<R>(pe[i * se]);
            }
            return Datum::Own(std::move(out));
          });
        });
      });
    };
    return flt ? select(double{}) : select(int64_t{});
  }

  double CostPerRow() const override {
    return 1.0 + cond_->CostPerRow() + then_->CostPerRow() + else_->CostPerRow();
  }

  std::string ToString() const override {
    return "CASE WHEN " + cond_->ToString() + " THEN " + then_->ToString() +
           " ELSE " + else_->ToString() + " END";
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    cond_->CollectColumnRefs(out);
    then_->CollectColumnRefs(out);
    else_->CollectColumnRefs(out);
  }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

class StartsWithExpr : public Expr {
 public:
  StartsWithExpr(ExprPtr str_expr, std::string prefix)
      : str_(std::move(str_expr)), prefix_(std::move(prefix)) {}

  DataType OutputType(const Table&) const override { return DataType::kInt32; }

  Datum EvaluateRows(const Table& input, int64_t begin,
                     int64_t len) const override {
    const Datum codes = str_->EvaluateRows(input, begin, len);
    GPL_CHECK(codes.type() == DataType::kString)
        << "StrStartsWith needs a string expression";
    // Precompute the matching dictionary codes once per batch.
    const Dictionary& dict = *codes.dictionary();
    std::vector<int32_t> matches(static_cast<size_t>(dict.size()));
    for (int32_t code = 0; code < dict.size(); ++code) {
      matches[static_cast<size_t>(code)] =
          dict.GetString(code).rfind(prefix_, 0) == 0 ? 1 : 0;
    }
    return Map1(codes, [&](auto code) -> int32_t {
      return matches[static_cast<size_t>(code)];
    });
  }

  double CostPerRow() const override { return 2.0 + str_->CostPerRow(); }
  std::string ToString() const override {
    return str_->ToString() + " LIKE '" + prefix_ + "%'";
  }

  double EstimateSelectivity(const StatsProvider& stats) const override {
    (void)stats;
    return 0.17;  // PROMO is 1 of 6 first syllables of p_type
  }

  void CollectColumnRefs(std::vector<std::string>* out) const override {
    str_->CollectColumnRefs(out);
  }

 private:
  ExprPtr str_;
  std::string prefix_;
};

}  // namespace

ExprPtr Col(std::string name) { return std::make_shared<ColumnRef>(std::move(name)); }
ExprPtr LitInt(int64_t value) { return Literal::Int(value); }
ExprPtr LitFloat(double value) { return Literal::Float(value); }
ExprPtr LitDate(const std::string& ymd) {
  Result<int32_t> days = date::Parse(ymd);
  GPL_CHECK(days.ok()) << days.status().ToString();
  return Literal::Date(days.value());
}
ExprPtr LitString(std::string value) { return Literal::String(std::move(value)); }

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(BinOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) { return std::make_shared<NotExpr>(std::move(a)); }
ExprPtr YearOf(ExprPtr date_expr) {
  return std::make_shared<YearExpr>(std::move(date_expr));
}
ExprPtr CaseWhen(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_shared<CaseExpr>(std::move(cond), std::move(then_expr),
                                    std::move(else_expr));
}
ExprPtr InRange(ExprPtr a, ExprPtr lo, ExprPtr hi) {
  return And(Ge(a, std::move(lo)), Lt(a, std::move(hi)));
}

ExprPtr StrStartsWith(ExprPtr str_expr, std::string prefix) {
  return std::make_shared<StartsWithExpr>(std::move(str_expr), std::move(prefix));
}

}  // namespace gpl
