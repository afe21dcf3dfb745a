// Property test: random expression trees evaluated column-at-a-time by the
// library must agree with a straightforward row-at-a-time interpreter
// written independently here — bit for bit, at host threads 1 and 4, both
// through Expr::Evaluate and through the morsel-parallel helpers that
// evaluate row ranges of the borrowed input.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/expr.h"
#include "exec/morsel.h"
#include "test_util.h"
#include "tpch/date.h"

namespace gpl {
namespace {

constexpr const char* kDateLiteral = "1995-03-15";
const char* const kStrings[] = {"FRANCE", "GERMANY", "PERU"};
// Literals compared against the string column; CHINA never occurs in it.
const char* const kStringLiterals[] = {"FRANCE", "PERU", "CHINA"};

/// One input row, read by the interpreter.
struct Row {
  int32_t i;       // int32 column "i"
  int64_t l;       // int64 column "l"
  double f;        // float64 column "f"
  int32_t d;       // date column "d"
  std::string s;   // string column "s"
};

/// A typed scalar value: int64 unless `flt`.
struct Value {
  bool flt = false;
  int64_t i = 0;
  double f = 0.0;

  double AsDouble() const { return flt ? f : static_cast<double>(i); }
  int64_t AsInt64() const { return flt ? static_cast<int64_t>(f) : i; }
  bool Truthy() const { return AsInt64() != 0; }
};

Value Int(int64_t v) { return Value{false, v, 0.0}; }
Value Float(double v) { return Value{true, 0, v}; }

/// A miniature row-wise interpreter over the same expression shapes the
/// fuzzer generates. Kept deliberately naive.
struct RowExpr {
  enum Kind {
    kColI, kColL, kColF, kDateDiff, kLitI, kLitF,
    kAdd, kSub, kMul, kDiv,
    kLt, kLe, kGt, kGe, kEq, kNe,
    kDateCmp, kStrEq, kStrNe,
    kAnd, kOr, kNot, kCase
  };
  Kind kind;
  Kind cmp = kEq;           // kDateCmp: the comparison
  bool literal_left = false;  // kDateCmp/kStr*: literal on the left
  int64_t lit_int = 0;      // kLitI; kDateCmp/kDateDiff: the date literal
  double lit_float = 0.0;
  std::string lit_str;
  std::unique_ptr<RowExpr> a, b, c;

  static bool Compare(Kind op, const Value& x, const Value& y) {
    if (x.flt || y.flt) {
      const double u = x.AsDouble(), v = y.AsDouble();
      switch (op) {
        case kLt: return u < v;
        case kLe: return u <= v;
        case kGt: return u > v;
        case kGe: return u >= v;
        case kEq: return u == v;
        default: return u != v;
      }
    }
    switch (op) {
      case kLt: return x.i < y.i;
      case kLe: return x.i <= y.i;
      case kGt: return x.i > y.i;
      case kGe: return x.i >= y.i;
      case kEq: return x.i == y.i;
      default: return x.i != y.i;
    }
  }

  Value Eval(const Row& row) const {
    switch (kind) {
      case kColI: return Int(row.i);
      case kColL: return Int(row.l);
      case kColF: return Float(row.f);
      case kDateDiff: return Int(static_cast<int64_t>(row.d) - lit_int);
      case kLitI: return Int(lit_int);
      case kLitF: return Float(lit_float);
      case kAdd:
      case kSub:
      case kMul:
      case kDiv: {
        const Value x = a->Eval(row), y = b->Eval(row);
        if (x.flt || y.flt) {
          const double u = x.AsDouble(), v = y.AsDouble();
          if (kind == kAdd) return Float(u + v);
          if (kind == kSub) return Float(u - v);
          if (kind == kMul) return Float(u * v);
          return Float(v == 0.0 ? 0.0 : u / v);
        }
        if (kind == kAdd) return Int(x.i + y.i);
        if (kind == kSub) return Int(x.i - y.i);
        if (kind == kMul) return Int(x.i * y.i);
        return Int(y.i == 0 ? 0 : x.i / y.i);
      }
      case kLt:
      case kLe:
      case kGt:
      case kGe:
      case kEq:
      case kNe:
        return Int(Compare(kind, a->Eval(row), b->Eval(row)) ? 1 : 0);
      case kDateCmp: {
        const Value col = Int(row.d), lit = Int(lit_int);
        return Int((literal_left ? Compare(cmp, lit, col)
                                 : Compare(cmp, col, lit)) ? 1 : 0);
      }
      case kStrEq:
        return Int(row.s == lit_str ? 1 : 0);
      case kStrNe:
        return Int(row.s != lit_str ? 1 : 0);
      case kAnd:
        return Int(a->Eval(row).Truthy() && b->Eval(row).Truthy() ? 1 : 0);
      case kOr:
        return Int(a->Eval(row).Truthy() || b->Eval(row).Truthy() ? 1 : 0);
      case kNot:
        return Int(a->Eval(row).Truthy() ? 0 : 1);
      case kCase: {
        const bool cond = a->Eval(row).Truthy();
        const Value t = b->Eval(row), e = c->Eval(row);
        if (t.flt || e.flt) return Float(cond ? t.AsDouble() : e.AsDouble());
        return Int(cond ? t.i : e.i);
      }
    }
    return Int(0);
  }
};

/// Generates matching (library expression, row interpreter) pairs.
struct Generated {
  ExprPtr lib;
  std::unique_ptr<RowExpr> row;
};

Generated Make(ExprPtr lib, RowExpr::Kind kind, Generated* a = nullptr,
               Generated* b = nullptr, Generated* c = nullptr) {
  Generated g;
  g.lib = std::move(lib);
  g.row = std::make_unique<RowExpr>();
  g.row->kind = kind;
  if (a != nullptr) g.row->a = std::move(a->row);
  if (b != nullptr) g.row->b = std::move(b->row);
  if (c != nullptr) g.row->c = std::move(c->row);
  return g;
}

Generated GenNumeric(Random& rng, int depth);
Generated GenBool(Random& rng, int depth);

Generated GenLiteral(Random& rng) {
  if (rng.Bernoulli(0.5)) {
    Generated g = Make(nullptr, RowExpr::kLitI);
    g.row->lit_int = rng.Uniform(-20, 20);
    g.lib = LitInt(g.row->lit_int);
    return g;
  }
  Generated g = Make(nullptr, RowExpr::kLitF);
  g.row->lit_float = static_cast<double>(rng.Uniform(-200, 200)) / 8.0;
  g.lib = LitFloat(g.row->lit_float);
  return g;
}

/// Operand of AND/OR/NOT/CASE: usually a predicate, sometimes a plain
/// number (floats truncate toward zero before the truth test).
Generated GenTruth(Random& rng, int depth) {
  return rng.Bernoulli(0.3) ? GenNumeric(rng, depth) : GenBool(rng, depth);
}

Generated GenBool(Random& rng, int depth) {
  static const RowExpr::Kind kCmps[] = {RowExpr::kLt, RowExpr::kLe,
                                        RowExpr::kGt, RowExpr::kGe,
                                        RowExpr::kEq, RowExpr::kNe};
  const auto cmp_expr = [](RowExpr::Kind k, ExprPtr x, ExprPtr y) {
    switch (k) {
      case RowExpr::kLt: return Lt(x, y);
      case RowExpr::kLe: return Le(x, y);
      case RowExpr::kGt: return Gt(x, y);
      case RowExpr::kGe: return Ge(x, y);
      case RowExpr::kEq: return Eq(x, y);
      default: return Ne(x, y);
    }
  };
  const int pick = depth <= 0 ? static_cast<int>(rng.Uniform(0, 2))
                              : static_cast<int>(rng.Uniform(0, 5));
  switch (pick) {
    case 0: {  // numeric comparison, sometimes with a literal on the left
      const RowExpr::Kind k = kCmps[rng.Uniform(0, 5)];
      Generated a = rng.Bernoulli(0.3) ? GenLiteral(rng)
                                       : GenNumeric(rng, depth - 1);
      Generated b = GenNumeric(rng, depth - 1);
      return Make(cmp_expr(k, a.lib, b.lib), k, &a, &b);
    }
    case 1: {  // date column against a date literal, either side
      Generated g = Make(nullptr, RowExpr::kDateCmp);
      g.row->cmp = kCmps[rng.Uniform(0, 5)];
      g.row->literal_left = rng.Bernoulli(0.5);
      g.row->lit_int = date::Parse(kDateLiteral).value();
      g.lib = g.row->literal_left
                  ? cmp_expr(g.row->cmp, LitDate(kDateLiteral), Col("d"))
                  : cmp_expr(g.row->cmp, Col("d"), LitDate(kDateLiteral));
      return g;
    }
    case 2: {  // string =/<> against a literal, either side
      const bool eq = rng.Bernoulli(0.5);
      Generated g = Make(nullptr, eq ? RowExpr::kStrEq : RowExpr::kStrNe);
      g.row->lit_str = kStringLiterals[rng.Uniform(0, 2)];
      ExprPtr lit = LitString(g.row->lit_str);
      ExprPtr col = Col("s");
      if (rng.Bernoulli(0.5)) std::swap(lit, col);
      g.lib = eq ? Eq(col, lit) : Ne(col, lit);
      return g;
    }
    case 3:
    case 4: {  // and/or
      Generated a = GenTruth(rng, depth - 1);
      Generated b = GenTruth(rng, depth - 1);
      if (rng.Bernoulli(0.5)) {
        return Make(And(a.lib, b.lib), RowExpr::kAnd, &a, &b);
      }
      return Make(Or(a.lib, b.lib), RowExpr::kOr, &a, &b);
    }
    default: {  // not
      Generated a = GenTruth(rng, depth - 1);
      return Make(Not(a.lib), RowExpr::kNot, &a);
    }
  }
}

Generated GenNumeric(Random& rng, int depth) {
  const int pick = depth <= 0 ? static_cast<int>(rng.Uniform(0, 4))
                              : static_cast<int>(rng.Uniform(0, 7));
  switch (pick) {
    case 0: return Make(Col("i"), RowExpr::kColI);
    case 1: return Make(Col("l"), RowExpr::kColL);
    case 2: return Make(Col("f"), RowExpr::kColF);
    case 3: {
      if (rng.Bernoulli(0.7)) return GenLiteral(rng);
      Generated g =
          Make(Sub(Col("d"), LitDate(kDateLiteral)), RowExpr::kDateDiff);
      g.row->lit_int = date::Parse(kDateLiteral).value();
      return g;
    }
    case 4:
    case 5: {
      Generated a = GenNumeric(rng, depth - 1);
      Generated b = GenNumeric(rng, depth - 1);
      switch (rng.Uniform(0, 3)) {
        case 0: return Make(Add(a.lib, b.lib), RowExpr::kAdd, &a, &b);
        case 1: return Make(Sub(a.lib, b.lib), RowExpr::kSub, &a, &b);
        case 2: return Make(Mul(a.lib, b.lib), RowExpr::kMul, &a, &b);
        default: return Make(Div(a.lib, b.lib), RowExpr::kDiv, &a, &b);
      }
    }
    default: {  // case when
      Generated cond = GenTruth(rng, depth - 1);
      Generated then_e = GenNumeric(rng, depth - 1);
      Generated else_e = GenNumeric(rng, depth - 1);
      return Make(CaseWhen(cond.lib, then_e.lib, else_e.lib), RowExpr::kCase,
                  &cond, &then_e, &else_e);
    }
  }
}

/// Small magnitudes keep every int64 product of a depth-3 tree far from
/// overflow; zeros are frequent, so divisions by zero occur.
Table MakeInput(Random& rng, int64_t rows, std::vector<Row>* out) {
  const int32_t base = date::Parse(kDateLiteral).value();
  Column ci(DataType::kInt32), cl(DataType::kInt64), cf(DataType::kFloat64),
      cd(DataType::kDate), cs(DataType::kString);
  for (int64_t r = 0; r < rows; ++r) {
    Row row;
    row.i = static_cast<int32_t>(rng.Uniform(-50, 50));
    row.l = rng.Uniform(-60, 60);
    row.f = static_cast<double>(rng.Uniform(-400, 400)) / 16.0;
    row.d = base + static_cast<int32_t>(rng.Uniform(-40, 40));
    row.s = kStrings[rng.Uniform(0, 2)];
    ci.AppendInt32(row.i);
    cl.AppendInt64(row.l);
    cf.AppendDouble(row.f);
    cd.AppendInt32(row.d);
    cs.AppendString(row.s);
    out->push_back(row);
  }
  Table t("t");
  GPL_CHECK_OK(t.AddColumn("i", std::move(ci)));
  GPL_CHECK_OK(t.AddColumn("l", std::move(cl)));
  GPL_CHECK_OK(t.AddColumn("f", std::move(cf)));
  GPL_CHECK_OK(t.AddColumn("d", std::move(cd)));
  GPL_CHECK_OK(t.AddColumn("s", std::move(cs)));
  return t;
}

/// Row r of `result` equals `expected` exactly, in type class and value.
::testing::AssertionResult SameValue(const Column& result, int64_t r,
                                     const Value& expected) {
  if (expected.flt != (result.type() == DataType::kFloat64)) {
    return ::testing::AssertionFailure()
           << "type " << DataTypeToString(result.type()) << ", expected "
           << (expected.flt ? "float" : "int");
  }
  if (expected.flt ? result.DoubleAt(r) != expected.f
                   : result.AsInt64(r) != expected.i) {
    return ::testing::AssertionFailure()
           << "value " << result.AsDouble(r) << ", expected "
           << expected.AsDouble();
  }
  return ::testing::AssertionSuccess();
}

class ExprFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ExprFuzzTest, ColumnarMatchesRowWise) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  // Three full morsels plus a ragged tail: at 4 threads the morsel helpers
  // split the batch into row ranges of the borrowed input.
  const int64_t rows = 3 * kMorselRows + 77;
  std::vector<Row> input_rows;
  const Table t = MakeInput(rng, rows, &input_rows);

  for (int trial = 0; trial < 20; ++trial) {
    const Generated g =
        rng.Bernoulli(0.5) ? GenBool(rng, 3) : GenNumeric(rng, 3);
    std::vector<Value> expected;
    expected.reserve(static_cast<size_t>(rows));
    std::vector<int64_t> expected_selected;
    for (int64_t r = 0; r < rows; ++r) {
      expected.push_back(g.row->Eval(input_rows[static_cast<size_t>(r)]));
      if (expected.back().Truthy()) expected_selected.push_back(r);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(g.lib->ToString() + " at threads " +
                   std::to_string(threads));
      ScopedHostParallelism parallelism(threads);
      const Column whole = g.lib->Evaluate(t);
      const Column morsels = EvaluateMorsels(*g.lib, t).ToColumn();
      ASSERT_EQ(whole.size(), rows);
      ASSERT_EQ(morsels.size(), rows);
      ASSERT_EQ(whole.type(), g.lib->OutputType(t));
      ASSERT_EQ(morsels.type(), whole.type());
      for (int64_t r = 0; r < rows; ++r) {
        const Value& want = expected[static_cast<size_t>(r)];
        ASSERT_TRUE(SameValue(whole, r, want)) << "row " << r;
        ASSERT_TRUE(SameValue(morsels, r, want)) << "row " << r;
      }
      EXPECT_EQ(SelectIndices(*g.lib, t), expected_selected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace gpl
