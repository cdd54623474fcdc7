//===- WrapArith.h - Two's-complement int64 arithmetic ----------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraparound int64 arithmetic, computed on uint64_t. The naive signed
/// forms are undefined behaviour on overflow (UBSan stops on them), and
/// the interpreter and the term arena's constant folding must agree on
/// what `3037000500 * 3037000500` is, so both call these.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_WRAPARITH_H
#define PEC_SUPPORT_WRAPARITH_H

#include <cstdint>

namespace pec {

inline int64_t wrapAdd(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) +
                              static_cast<uint64_t>(R));
}
inline int64_t wrapSub(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) -
                              static_cast<uint64_t>(R));
}
inline int64_t wrapMul(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) *
                              static_cast<uint64_t>(R));
}
inline int64_t wrapNeg(int64_t V) {
  return static_cast<int64_t>(-static_cast<uint64_t>(V));
}

} // namespace pec

#endif // PEC_SUPPORT_WRAPARITH_H
