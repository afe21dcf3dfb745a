#ifndef GPL_EXEC_EXACT_SUM_H_
#define GPL_EXEC_EXACT_SUM_H_

#include <array>
#include <cstdint>
#include <cstring>

namespace gpl {

/// Exact (error-free) accumulator for IEEE-754 double sums.
///
/// A fixed-point superaccumulator: the running sum is held as 68 base-2^32
/// digits spanning binary exponents [-1088, 1088), wide enough to hold any
/// sum of < 2^30 finite doubles without overflow or rounding. Because every
/// Add() is exact, the accumulated value — and therefore Round() — is
/// independent of insertion order, and two accumulators can be merged
/// digit-wise without losing a bit. This is what makes partial-aggregate
/// pushdown bit-identical to the single-device serial fold: each shard sums
/// its rows exactly, the coordinator merges the canonical digit strings
/// exactly, and the one rounding to double happens once, at the end.
///
/// Infinities and NaN are tracked as flags (a sum that saw +inf and -inf, or
/// any NaN, rounds to NaN; +inf alone rounds to +inf, mirroring what a
/// double fold would produce once saturated).
class ExactFloat64Sum {
 public:
  static constexpr int kDigits = 68;
  /// Binary exponent of digit 0's least-significant bit. Chosen so the
  /// smallest subnormal (2^-1074) lands at bit 14 of digit 0.
  static constexpr int kMinExp = -1088;

  /// Order-independent serialized form: sign (-1/0/+1) and the magnitude as
  /// base-2^32 digits (each < 2^32), least-significant first, plus the
  /// special-value flags. Equal mathematical values always produce equal
  /// canonical forms.
  struct Canonical {
    int sign = 0;
    std::array<uint64_t, kDigits> digits{};
    bool any_pos_inf = false;
    bool any_neg_inf = false;
    bool any_nan = false;
  };

  /// Adds one double, exactly (no rounding for finite values). Inline: it
  /// is the inner loop of every sum and average.
  void Add(double x);

  /// Adds another accumulator's value, exactly.
  void Merge(const ExactFloat64Sum& other) { AddCanonical(other.ToCanonical()); }

  /// Adds a serialized value (e.g. a shard partial), exactly.
  void AddCanonical(const Canonical& c);

  /// The current value in canonical sign-magnitude form.
  Canonical ToCanonical() const;

  /// Rounds the exact value to double. Deterministic: a fixed most- to
  /// least-significant digit fold, so equal canonical forms round equally.
  double Round() const { return RoundCanonical(ToCanonical()); }

  static double RoundCanonical(const Canonical& c);

  void Clear();

 private:
  // Carry-propagate so every digit except the top fits in [0, 2^32); the top
  // digit stays an unmasked signed residue (it carries the sign of the whole
  // value between normalizations).
  void Normalize();

  // Signed redundant digits: value = sum over k of digits_[k] * 2^(32k+kMinExp).
  // Each Add() touches at most 3 digits with < 2^32 of magnitude each, so
  // int64 digits absorb kNormalizeEvery adds between carry propagations.
  static constexpr int64_t kNormalizeEvery = int64_t{1} << 30;
  std::array<int64_t, kDigits> digits_{};
  int64_t adds_ = 0;
  bool any_pos_inf_ = false;
  bool any_neg_inf_ = false;
  bool any_nan_ = false;
};

inline void ExactFloat64Sum::Add(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint64_t frac = bits & 0xfffffffffffffULL;
  const int exp = static_cast<int>((bits >> 52) & 0x7ff);
  const bool neg = (bits >> 63) != 0;
  if (exp == 0x7ff) {
    if (frac != 0) {
      any_nan_ = true;
    } else if (neg) {
      any_neg_inf_ = true;
    } else {
      any_pos_inf_ = true;
    }
    return;
  }
  uint64_t mantissa = frac;
  int lsb_exp;  // binary exponent of the mantissa's bit 0
  if (exp == 0) {
    if (mantissa == 0) return;  // +/-0 contributes nothing
    lsb_exp = 1 - 1075;         // subnormal
  } else {
    mantissa |= uint64_t{1} << 52;
    lsb_exp = exp - 1075;
  }
  const int shift = lsb_exp - kMinExp;  // >= 14 by choice of kMinExp
  const int digit = shift >> 5;
  const int bit = shift & 31;
  // The shifted mantissa spans < 85 bits: three base-2^32 chunks.
  const unsigned __int128 wide = static_cast<unsigned __int128>(mantissa) << bit;
  int64_t c0 = static_cast<int64_t>(static_cast<uint64_t>(wide) & 0xffffffffULL);
  int64_t c1 =
      static_cast<int64_t>(static_cast<uint64_t>(wide >> 32) & 0xffffffffULL);
  int64_t c2 = static_cast<int64_t>(static_cast<uint64_t>(wide >> 64));
  if (neg) {
    c0 = -c0;
    c1 = -c1;
    c2 = -c2;
  }
  digits_[digit] += c0;
  digits_[digit + 1] += c1;
  digits_[digit + 2] += c2;
  if (++adds_ >= kNormalizeEvery) Normalize();
}

}  // namespace gpl

#endif  // GPL_EXEC_EXACT_SUM_H_
