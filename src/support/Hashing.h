//===-- support/Hashing.h - Hash combination utilities ----------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic 64-bit hash combinators used by the state-set containers.
/// The reachability engines hash millions of small integer tuples, so the
/// combinator is a cheap multiply-xor mix rather than a cryptographic hash.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_SUPPORT_HASHING_H
#define CUBA_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cuba {

/// The SplitMix64 finaliser: a full-avalanche bijection on 64-bit words.
/// Every output bit depends on every input bit, so truncating the result
/// to any slice (the open-addressing tables mask to the low bits, the
/// legacy node-based containers to size_t) keeps uniform occupancy.
inline uint64_t splitMix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Mixes \p Value into the running hash \p Seed.  The combination step is
/// boost-style (order-sensitive), finalised through SplitMix64 so high
/// bits carry as much entropy as low bits; the previous multiply-only
/// finaliser leaked structure into the high bits, inflating probe lengths
/// in power-of-two-capacity tables.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return splitMix64(Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                            (Seed >> 2)));
}

/// Hashes the range [First, Last) of integer-convertible elements.
template <typename It> uint64_t hashRange(It First, It Last) {
  uint64_t H = 0x42ULL;
  for (It I = First; I != Last; ++I)
    H = hashCombine(H, static_cast<uint64_t>(*I));
  return H;
}

/// FNV-1a over the bytes of \p S.  Unlike std::hash it is fixed across
/// platforms and library versions, so it may key committed fingerprints
/// as well as in-memory name indexes.
inline uint64_t hashString(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

} // namespace cuba

#endif // CUBA_SUPPORT_HASHING_H
