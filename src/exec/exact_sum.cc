#include "exec/exact_sum.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace gpl {

namespace {

// Floored carry propagation over an arbitrary signed digit array; leaves
// every digit but the last in [0, 2^32) and folds the residue into the last.
void PropagateCarries(std::array<int64_t, ExactFloat64Sum::kDigits>* digits) {
  int64_t carry = 0;
  for (int k = 0; k < ExactFloat64Sum::kDigits - 1; ++k) {
    const int64_t v = (*digits)[k] + carry;
    const int64_t low = v & 0xffffffffLL;
    carry = (v - low) >> 32;  // exact: v - low is a multiple of 2^32
    (*digits)[k] = low;
  }
  (*digits)[ExactFloat64Sum::kDigits - 1] += carry;
}

}  // namespace

void ExactFloat64Sum::AddCanonical(const Canonical& c) {
  any_pos_inf_ |= c.any_pos_inf;
  any_neg_inf_ |= c.any_neg_inf;
  any_nan_ |= c.any_nan;
  if (c.sign == 0) return;
  for (int k = 0; k < kDigits; ++k) {
    if (c.digits[k] == 0) continue;
    const int64_t v = static_cast<int64_t>(c.digits[k]);
    digits_[k] += c.sign < 0 ? -v : v;
  }
  if (++adds_ >= kNormalizeEvery) Normalize();
}

ExactFloat64Sum::Canonical ExactFloat64Sum::ToCanonical() const {
  Canonical c;
  c.any_pos_inf = any_pos_inf_;
  c.any_neg_inf = any_neg_inf_;
  c.any_nan = any_nan_;
  std::array<int64_t, kDigits> d = digits_;
  PropagateCarries(&d);
  int sign = 0;
  if (d[kDigits - 1] < 0) {
    sign = -1;
  } else {
    for (int k = kDigits - 1; k >= 0; --k) {
      if (d[k] != 0) {
        sign = 1;
        break;
      }
    }
  }
  if (sign < 0) {
    for (int64_t& v : d) v = -v;
    PropagateCarries(&d);
  }
  c.sign = sign;
  for (int k = 0; k < kDigits; ++k) {
    c.digits[k] = static_cast<uint64_t>(d[k]);
  }
  return c;
}

double ExactFloat64Sum::RoundCanonical(const Canonical& c) {
  if (c.any_nan || (c.any_pos_inf && c.any_neg_inf)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (c.any_pos_inf) return std::numeric_limits<double>::infinity();
  if (c.any_neg_inf) return -std::numeric_limits<double>::infinity();
  double r = 0.0;
  for (int k = kDigits - 1; k >= 0; --k) {
    if (c.digits[k] != 0) {
      r += std::ldexp(static_cast<double>(c.digits[k]), 32 * k + kMinExp);
    }
  }
  return c.sign < 0 ? -r : r;
}

void ExactFloat64Sum::Normalize() {
  PropagateCarries(&digits_);
  adds_ = 0;
}

void ExactFloat64Sum::Clear() {
  digits_.fill(0);
  adds_ = 0;
  any_pos_inf_ = false;
  any_neg_inf_ = false;
  any_nan_ = false;
}

}  // namespace gpl
