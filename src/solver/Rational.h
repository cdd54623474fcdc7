//===- Rational.h - Exact rational arithmetic -------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rationals over int64 numerator/denominator, normalized (gcd = 1,
/// denominator > 0). Intermediate products use __int128. A normalized
/// result that does not fit in int64 sets the calling thread's sticky
/// overflow flag and comes back as 1 or -1 with the true sign, so a
/// nonzero value never turns into a zero divisor. Whoever computes with
/// rationals clears the flag first and, if it is set afterwards, discards
/// the result: the LIA solver and its linearizer then answer
/// conservatively ("feasible"), as on an exhausted node budget.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SOLVER_RATIONAL_H
#define PEC_SOLVER_RATIONAL_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <numeric>
#include <string>

namespace pec {

class Rational {
public:
  Rational() = default;
  Rational(int64_t N) : Num(N) {}
  Rational(int64_t N, int64_t D) : Num(N), Den(D) { normalize(); }

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  bool isZero() const { return Num == 0; }
  bool isInteger() const { return Den == 1; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }

  /// The calling thread's sticky overflow flag (see the file comment).
  static void clearOverflow() { overflowFlag() = false; }
  static bool overflowed() { return overflowFlag(); }

  /// Floor and ceiling as integers (exact; neither can overflow).
  int64_t floor() const {
    int64_t Q = Num / Den;
    return Num % Den < 0 ? Q - 1 : Q;
  }
  int64_t ceil() const {
    int64_t Q = Num / Den;
    return Num % Den > 0 ? Q + 1 : Q;
  }

  Rational operator-() const {
    if (Num == INT64_MIN)
      return overflow(/*Negative=*/false);
    return fromRaw(-Num, Den);
  }
  Rational operator+(const Rational &O) const {
    return fromChecked(static_cast<__int128>(Num) * O.Den +
                           static_cast<__int128>(O.Num) * Den,
                       static_cast<__int128>(Den) * O.Den);
  }
  Rational operator-(const Rational &O) const { return *this + (-O); }
  Rational operator*(const Rational &O) const {
    return fromChecked(static_cast<__int128>(Num) * O.Num,
                       static_cast<__int128>(Den) * O.Den);
  }
  Rational operator/(const Rational &O) const {
    if (O.Num == 0)
      reportFatalError("rational division by zero");
    return fromChecked(static_cast<__int128>(Num) * O.Den,
                       static_cast<__int128>(Den) * O.Num);
  }
  Rational &operator+=(const Rational &O) { return *this = *this + O; }
  Rational &operator-=(const Rational &O) { return *this = *this - O; }
  Rational &operator*=(const Rational &O) { return *this = *this * O; }

  friend bool operator==(const Rational &A, const Rational &B) {
    return A.Num == B.Num && A.Den == B.Den;
  }
  friend bool operator!=(const Rational &A, const Rational &B) {
    return !(A == B);
  }
  friend bool operator<(const Rational &A, const Rational &B) {
    return static_cast<__int128>(A.Num) * B.Den <
           static_cast<__int128>(B.Num) * A.Den;
  }
  friend bool operator<=(const Rational &A, const Rational &B) {
    return !(B < A);
  }
  friend bool operator>(const Rational &A, const Rational &B) { return B < A; }
  friend bool operator>=(const Rational &A, const Rational &B) {
    return !(A < B);
  }

  std::string str() const {
    if (Den == 1)
      return std::to_string(Num);
    return std::to_string(Num) + "/" + std::to_string(Den);
  }

private:
  static Rational fromRaw(int64_t N, int64_t D) {
    Rational R;
    R.Num = N;
    R.Den = D;
    return R;
  }

  static Rational fromChecked(__int128 N, __int128 D) {
    if (D < 0) {
      N = -N;
      D = -D;
    }
    __int128 G = gcd128(N < 0 ? -N : N, D);
    if (G > 1) {
      N /= G;
      D /= G;
    }
    if (N > INT64_MAX || N < INT64_MIN || D > INT64_MAX)
      return overflow(/*Negative=*/N < 0);
    return fromRaw(static_cast<int64_t>(N), static_cast<int64_t>(D));
  }

  static Rational overflow(bool Negative) {
    overflowFlag() = true;
    return fromRaw(Negative ? -1 : 1, 1);
  }

  static bool &overflowFlag() {
    static thread_local bool Flag = false;
    return Flag;
  }

  static __int128 gcd128(__int128 A, __int128 B) {
    while (B != 0) {
      __int128 T = A % B;
      A = B;
      B = T;
    }
    return A == 0 ? 1 : A;
  }

  void normalize() {
    if (Den == 0)
      reportFatalError("rational with zero denominator");
    if (Den < 0) {
      Num = -Num;
      Den = -Den;
    }
    int64_t G = std::gcd(Num < 0 ? -Num : Num, Den);
    if (G > 1) {
      Num /= G;
      Den /= G;
    }
  }

  int64_t Num = 0;
  int64_t Den = 1;
};

} // namespace pec

#endif // PEC_SOLVER_RATIONAL_H
