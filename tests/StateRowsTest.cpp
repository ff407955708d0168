//===-- tests/StateRowsTest.cpp - Hash-consed state row tests --------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the engines' state store (support/StateRows.h):
/// intern / find / row round trips across index growth, one-word
/// distinctness, the extreme widths, order-independent byte accounting,
/// and the allocation fault probe.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>

#include "support/FaultInject.h"
#include "support/StateRows.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using cuba::testing::SplitMix64;

namespace {

/// \p N distinct rows of width \p Width: row I holds I in its first word
/// and seeded noise elsewhere.
std::vector<std::vector<uint32_t>> distinctRows(unsigned Width, size_t N,
                                                uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<std::vector<uint32_t>> Out(N, std::vector<uint32_t>(Width));
  for (size_t I = 0; I < N; ++I) {
    Out[I][0] = static_cast<uint32_t>(I);
    for (unsigned W = 1; W < Width; ++W)
      Out[I][W] = static_cast<uint32_t>(Rng.below(8));
  }
  return Out;
}

uint32_t internRow(StateRows &T, const std::vector<uint32_t> &Row,
                   bool *New = nullptr) {
  auto [Id, Fresh] = T.intern(Row.data(), T.hash(Row.data()));
  if (New)
    *New = Fresh;
  return Id;
}

} // namespace

TEST(StateRows, RoundTripAcrossIndexGrowth) {
  // 5,000 rows take the 64-slot index through several doublings; every
  // id must stay dense, findable and byte-identical to what went in.
  const unsigned Width = 4;
  std::vector<std::vector<uint32_t>> Rows = distinctRows(Width, 5000, 7);
  StateRows T(Width);
  for (size_t I = 0; I < Rows.size(); ++I) {
    bool New = false;
    EXPECT_EQ(internRow(T, Rows[I], &New), I);
    EXPECT_TRUE(New);
  }
  EXPECT_EQ(T.size(), Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I) {
    const std::vector<uint32_t> &R = Rows[I];
    EXPECT_EQ(T.find(R.data(), T.hash(R.data())), I);
    EXPECT_TRUE(std::equal(R.begin(), R.end(), T.row(I)));
    bool New = true;
    EXPECT_EQ(internRow(T, R, &New), I);
    EXPECT_FALSE(New) << "re-interning must not add a row";
  }
  EXPECT_EQ(T.size(), Rows.size());
}

TEST(StateRows, RowsDifferingInOneWordStayDistinct) {
  // Every one-word neighbour of a base row: the successor shape the
  // engines produce (q or one thread's word patched).
  const unsigned Width = 6;
  StateRows T(Width);
  std::vector<uint32_t> Base = {3, 1, 4, 1, 5, 9};
  uint32_t BaseId = internRow(T, Base);
  std::vector<std::vector<uint32_t>> Neighbours;
  for (unsigned W = 0; W < Width; ++W)
    for (uint32_t V = 0; V < 16; ++V) {
      if (V == Base[W])
        continue;
      std::vector<uint32_t> R = Base;
      R[W] = V;
      Neighbours.push_back(R);
    }
  for (const std::vector<uint32_t> &R : Neighbours) {
    EXPECT_EQ(T.find(R.data(), T.hash(R.data())), StateRows::NoRow);
    EXPECT_NE(internRow(T, R), BaseId);
  }
  EXPECT_EQ(T.size(), 1 + Neighbours.size());
  EXPECT_EQ(T.find(Base.data(), T.hash(Base.data())), BaseId);
}

TEST(StateRows, WidthsOneAndNineWork) {
  for (unsigned Width : {1u, 9u}) {
    std::vector<std::vector<uint32_t>> Rows = distinctRows(Width, 300, Width);
    StateRows T(Width);
    EXPECT_EQ(T.width(), Width);
    for (size_t I = 0; I < Rows.size(); ++I)
      EXPECT_EQ(internRow(T, Rows[I]), I) << "width " << Width;
    for (size_t I = 0; I < Rows.size(); ++I) {
      EXPECT_TRUE(std::equal(Rows[I].begin(), Rows[I].end(), T.row(I)))
          << "width " << Width;
      EXPECT_EQ(T.find(Rows[I].data(), T.hash(Rows[I].data())), I)
          << "width " << Width;
    }
  }
}

TEST(StateRows, MemoryBytesIgnoresInsertionOrder) {
  std::vector<std::vector<uint32_t>> Rows = distinctRows(5, 1000, 11);
  StateRows Forward(5), Backward(5);
  for (const std::vector<uint32_t> &R : Rows)
    internRow(Forward, R);
  for (auto It = Rows.rbegin(); It != Rows.rend(); ++It)
    internRow(Backward, *It);
  EXPECT_EQ(Forward.size(), Backward.size());
  EXPECT_EQ(Forward.memoryBytes(), Backward.memoryBytes());
  EXPECT_GT(Forward.memoryBytes(), Rows.size() * 5 * sizeof(uint32_t));
}

TEST(StateRows, AllocFaultLeavesTheTableUntouched) {
  StateRows T(3);
  std::vector<uint32_t> A = {1, 2, 3}, B = {4, 5, 6};
  internRow(T, A);
  uint64_t Bytes = T.memoryBytes();
  {
    fault::ScopedArm Arm(fault::Point::Alloc, 0);
    EXPECT_THROW(internRow(T, B), fault::InjectedFault);
  }
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.memoryBytes(), Bytes);
  EXPECT_EQ(T.find(B.data(), T.hash(B.data())), StateRows::NoRow);
  {
    // Re-interning a present row allocates nothing, so it never probes.
    fault::ScopedArm Arm(fault::Point::Alloc, 0);
    EXPECT_EQ(internRow(T, A), 0u);
    EXPECT_FALSE(fault::fired());
  }
  EXPECT_EQ(internRow(T, B), 1u);
}
