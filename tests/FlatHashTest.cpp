//===-- tests/FlatHashTest.cpp - Flat container tests ----------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the flat open-addressing containers (support/FlatHash.h)
/// and their companion on the hot paths, the vector-backed ring queue.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "support/FlatHash.h"
#include "support/RingQueue.h"

using namespace cuba;

//===----------------------------------------------------------------------===//
// FlatMap / FlatSet
//===----------------------------------------------------------------------===//

TEST(FlatMap, InsertFindErase) {
  FlatMap<uint64_t, int> M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.find(42), nullptr);

  auto [Slot, New] = M.tryEmplace(42, 7);
  EXPECT_TRUE(New);
  EXPECT_EQ(*Slot, 7);
  EXPECT_EQ(M.size(), 1u);

  // Re-inserting does not overwrite.
  auto [Slot2, New2] = M.tryEmplace(42, 99);
  EXPECT_FALSE(New2);
  EXPECT_EQ(*Slot2, 7);
  EXPECT_EQ(M.size(), 1u);

  ASSERT_NE(M.find(42), nullptr);
  EXPECT_EQ(*M.find(42), 7);

  EXPECT_TRUE(M.erase(42));
  EXPECT_FALSE(M.erase(42));
  EXPECT_EQ(M.find(42), nullptr);
  EXPECT_TRUE(M.empty());
}

TEST(FlatMap, ForEachMutMutatesEveryValueAcrossRehash) {
  // Mutations through forEachMut must stick for every entry, including
  // ones relocated by rehash growth and survivors of backward-shift
  // erasure; each entry must be visited exactly once.
  FlatMap<uint32_t, uint32_t> M;
  const uint32_t N = 1'000; // Several rehash rounds from capacity 16.
  for (uint32_t I = 0; I < N; ++I)
    M.tryEmplace(I * 0x9e3779b9u, I);
  // Backward-shift erase a third of the keys, creating shifted clusters.
  for (uint32_t I = 0; I < N; I += 3)
    EXPECT_TRUE(M.erase(I * 0x9e3779b9u));

  std::set<uint32_t> Visited;
  M.forEachMut([&](const uint32_t &Key, uint32_t &Val) {
    EXPECT_TRUE(Visited.insert(Val).second) << "entry visited twice";
    EXPECT_EQ(Key, Val * 0x9e3779b9u);
    Val += 1'000'000;
  });
  EXPECT_EQ(Visited.size(), M.size());

  // Keep inserting afterwards (more rehashes) -- mutated values must
  // survive the relocations too.
  for (uint32_t I = N; I < 4 * N; ++I)
    M.tryEmplace(I * 0x9e3779b9u, I);
  size_t Mutated = 0, Fresh = 0;
  for (uint32_t I = 0; I < 4 * N; ++I) {
    const uint32_t *V = M.find(I * 0x9e3779b9u);
    if (I < N && I % 3 == 0) {
      EXPECT_EQ(V, nullptr);
      continue;
    }
    ASSERT_NE(V, nullptr) << I;
    if (I < N) {
      EXPECT_EQ(*V, I + 1'000'000) << "mutation lost for key " << I;
      ++Mutated;
    } else {
      EXPECT_EQ(*V, I);
      ++Fresh;
    }
  }
  EXPECT_EQ(Mutated, N - (N + 2) / 3);
  EXPECT_EQ(Fresh, 3u * N);
}

TEST(FlatMap, GrowthAcrossRehashKeepsAllEntries) {
  FlatMap<uint32_t, uint32_t> M;
  const uint32_t N = 10'000; // Forces ~10 rehash rounds from capacity 16.
  for (uint32_t I = 0; I < N; ++I)
    M.tryEmplace(I * 2654435761u, I);
  EXPECT_EQ(M.size(), N);
  for (uint32_t I = 0; I < N; ++I) {
    const uint32_t *V = M.find(I * 2654435761u);
    ASSERT_NE(V, nullptr) << "key " << I << " lost in a rehash";
    EXPECT_EQ(*V, I);
  }
}

TEST(FlatSet, DegenerateKeyClustering) {
  // Keys sharing low bits cluster maximally before mixing; SplitMix64
  // must spread them, and backward-shift erase must keep the remaining
  // cluster reachable.
  FlatSet<uint64_t> S;
  const uint64_t Stride = 1u << 16; // All keys equal mod 2^16.
  for (uint64_t I = 0; I < 2'000; ++I)
    EXPECT_TRUE(S.insert(I * Stride));
  for (uint64_t I = 0; I < 2'000; ++I)
    EXPECT_FALSE(S.insert(I * Stride));
  // Erase every third element, then verify the rest still probe fine.
  for (uint64_t I = 0; I < 2'000; I += 3)
    EXPECT_TRUE(S.erase(I * Stride));
  for (uint64_t I = 0; I < 2'000; ++I)
    EXPECT_EQ(S.contains(I * Stride), I % 3 != 0);
}

TEST(FlatSet, RandomizedParityWithStdSet) {
  std::mt19937_64 Rng(0xC0FFEE);
  FlatSet<uint64_t> S;
  std::set<uint64_t> Ref;
  for (int Op = 0; Op < 20'000; ++Op) {
    uint64_t Key = Rng() % 512; // Small key space: plenty of collisions.
    if (Rng() % 3 == 0) {
      EXPECT_EQ(S.erase(Key), Ref.erase(Key) == 1) << "op " << Op;
    } else {
      EXPECT_EQ(S.insert(Key), Ref.insert(Key).second) << "op " << Op;
    }
    ASSERT_EQ(S.size(), Ref.size()) << "op " << Op;
  }
  std::vector<uint64_t> Drained;
  S.forEach([&](uint64_t K) { Drained.push_back(K); });
  std::sort(Drained.begin(), Drained.end());
  EXPECT_EQ(Drained, std::vector<uint64_t>(Ref.begin(), Ref.end()));
}

TEST(FlatMap, ReserveAvoidsLoss) {
  FlatMap<uint64_t, uint64_t> M;
  M.reserve(1'000);
  for (uint64_t I = 0; I < 1'000; ++I)
    M.tryEmplace(I, I * I);
  for (uint64_t I = 0; I < 1'000; ++I)
    EXPECT_EQ(*M.find(I), I * I);
}

TEST(Hashing, SplitMix64HighBitsCarryEntropy) {
  // Consecutive keys must differ in the high bits of their hashes; the
  // flat tables mask the hash, and probe lengths explode if the mixer
  // leaks structure into any slice.
  std::set<uint64_t> High;
  for (uint64_t I = 0; I < 4'096; ++I)
    High.insert(splitMix64(I) >> 48);
  // 4096 draws from 65536 buckets: expect near-full diversity.
  EXPECT_GT(High.size(), 3'500u);

  std::set<uint64_t> CombineHigh;
  for (uint64_t I = 0; I < 4'096; ++I)
    CombineHigh.insert(hashCombine(0x1234, I) >> 48);
  EXPECT_GT(CombineHigh.size(), 3'500u);
}

//===----------------------------------------------------------------------===//
// RingQueue
//===----------------------------------------------------------------------===//

TEST(RingQueue, FifoAcrossWraparoundAndGrowth) {
  RingQueue<uint64_t> Q;
  // Interleave pushes and pops so the ring wraps repeatedly while also
  // growing; verify strict FIFO order throughout.
  uint64_t NextPush = 0, NextPop = 0;
  std::mt19937_64 Rng(7);
  for (int Step = 0; Step < 50'000; ++Step) {
    if (Q.empty() || Rng() % 5 != 0) {
      Q.push(NextPush++);
    } else {
      ASSERT_EQ(Q.pop(), NextPop++);
    }
    ASSERT_EQ(Q.size(), NextPush - NextPop);
  }
  while (!Q.empty())
    ASSERT_EQ(Q.pop(), NextPop++);
  EXPECT_EQ(NextPush, NextPop);
}

TEST(RingQueue, ReserveThenFill) {
  RingQueue<uint32_t> Q;
  Q.reserve(100);
  for (uint32_t I = 0; I < 100; ++I)
    Q.push(I);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(Q.pop(), I);
}
