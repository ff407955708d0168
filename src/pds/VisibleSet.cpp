//===-- pds/VisibleSet.cpp - Packed visible-state sets --------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "pds/VisibleSet.h"

#include <algorithm>
#include <bit>

using namespace cuba;

/// Bits needed to store values 0..Max.
static unsigned bitsFor(uint64_t Max) {
  return Max == 0 ? 1 : std::bit_width(Max);
}

VisiblePacker::VisiblePacker(const Cpds &C) {
  unsigned Total = bitsFor(C.numSharedStates() - 1);
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    // Top symbols range over 0 (EpsSym, the empty stack) .. numSymbols().
    FieldBits.push_back(bitsFor(C.thread(I).numSymbols()));
    Total += FieldBits.back();
  }
  Packable = Total <= 64;
  // The last thread's top is the least significant field.
  TopShift.resize(FieldBits.size());
  for (size_t I = FieldBits.size(); I-- > 0;) {
    TopShift[I] = QShift;
    QShift += FieldBits[I];
  }
}

VisibleState VisiblePacker::unpack(uint64_t Bits) const {
  VisibleState V;
  V.Tops.resize(FieldBits.size());
  V.Q = unpack(Bits, V.Tops.data());
  return V;
}

std::vector<std::pair<VisibleState, unsigned>>
VisibleRoundSet::sortedEntries() const {
  std::vector<std::pair<VisibleState, unsigned>> Out;
  if (!Packer.packable()) {
    Out.assign(Fallback.begin(), Fallback.end());
    return Out;
  }
  std::vector<std::pair<uint64_t, unsigned>> Words;
  Words.reserve(Packed.size());
  Packed.forEach([&](uint64_t Bits, unsigned Round) {
    Words.emplace_back(Bits, Round);
  });
  std::sort(Words.begin(), Words.end()); // Packed order == state order.
  Out.reserve(Words.size());
  for (auto [Bits, Round] : Words)
    Out.emplace_back(Packer.unpack(Bits), Round);
  return Out;
}

std::vector<VisibleState>
VisibleRoundSet::statesInRound(unsigned Round) const {
  std::vector<VisibleState> Out;
  if (!Packer.packable()) {
    for (const auto &[V, R] : Fallback)
      if (R == Round)
        Out.push_back(V);
    return Out;
  }
  std::vector<uint64_t> Words;
  if (Round == LatestRound)
    Words = LatestWords;
  else if (Round < LatestRound) // No state is first seen past LatestRound.
    Packed.forEach([&](uint64_t Bits, unsigned R) {
      if (R == Round)
        Words.push_back(Bits);
    });
  std::sort(Words.begin(), Words.end()); // Packed order == state order.
  Out.reserve(Words.size());
  for (uint64_t Bits : Words)
    Out.push_back(Packer.unpack(Bits));
  return Out;
}

PackedProperty::PackedProperty(const SafetyProperty &Prop,
                               const VisiblePacker &P) {
  if (!P.packable())
    return;
  const unsigned N = P.numThreads();
  const uint64_t QMask = ~uint64_t(0) << P.sharedShift();
  for (const VisiblePattern &Pat : Prop.badPatterns()) {
    if (Pat.Tops.size() != N)
      return;
    uint64_t Mask = 0, Value = 0;
    bool Fits = true;
    if (Pat.Q) {
      uint64_t Q = *Pat.Q;
      Fits = (Q << P.sharedShift() >> P.sharedShift()) == Q;
      Mask |= QMask;
      Value |= Q << P.sharedShift();
    }
    for (unsigned I = 0; I < N && Fits; ++I) {
      if (!Pat.Tops[I])
        continue;
      uint64_t Field = uint64_t(*Pat.Tops[I]) << P.topShift(I);
      Fits = (Field & ~P.topMask(I)) == 0 &&
             Field >> P.topShift(I) == *Pat.Tops[I];
      Mask |= P.topMask(I);
      Value |= Field;
    }
    if (Fits)
      Patterns.emplace_back(Mask, Value);
  }
  Compiled = true;
}

std::optional<uint64_t>
PackedProperty::leastViolation(std::span<const uint64_t> Words) const {
  assert(Compiled && "scan with an uncompiled property");
  std::optional<uint64_t> Least;
  for (uint64_t W : Words)
    if ((!Least || W < *Least) && violatedBy(W))
      Least = W;
  return Least;
}
