//===-- support/SmallVec.h - Inline small vector ----------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector with inline storage for small element counts (the LLVM
/// SmallVector idea, restricted to trivially copyable elements).  The
/// dataflow engine's states hold one 32-bit language id per thread in
/// one; with few threads they stay allocation-free and contiguous.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_SUPPORT_SMALLVEC_H
#define CUBA_SUPPORT_SMALLVEC_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace cuba {

/// Fixed-capacity-inline vector of trivially copyable \p T, spilling to
/// the heap beyond \p N elements.
template <typename T, unsigned N = 4> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is restricted to trivially copyable elements");

public:
  SmallVec() = default;

  SmallVec(const SmallVec &Other) { assign(Other.data(), Other.Count); }
  SmallVec(SmallVec &&Other) noexcept { moveFrom(Other); }

  SmallVec &operator=(const SmallVec &Other) {
    if (this != &Other) {
      Count = 0; // Keep existing heap storage for reuse.
      assign(Other.data(), Other.Count);
    }
    return *this;
  }
  SmallVec &operator=(SmallVec &&Other) noexcept {
    if (this != &Other) {
      freeHeap();
      moveFrom(Other);
    }
    return *this;
  }

  ~SmallVec() { freeHeap(); }

  uint32_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Elements held without spilling to the heap.
  static constexpr uint32_t inlineCapacity() { return N; }

  T *data() { return Count <= N ? Inline : Heap; }
  const T *data() const { return Count <= N ? Inline : Heap; }

  T &operator[](uint32_t I) {
    assert(I < Count && "index out of range");
    return data()[I];
  }
  const T &operator[](uint32_t I) const {
    assert(I < Count && "index out of range");
    return data()[I];
  }

  T *begin() { return data(); }
  T *end() { return data() + Count; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + Count; }

  void push_back(T Value) {
    if (Count == N) {
      // Inline storage is full: spill.  (Already-spilled growth below.)
      if (HeapCap < N + 1)
        reallocHeap(2 * N);
      std::memcpy(Heap, Inline, N * sizeof(T));
    } else if (Count > N && Count == HeapCap) {
      reallocHeap(2 * HeapCap);
    }
    ++Count;
    data()[Count - 1] = Value;
  }

  void clear() { Count = 0; }

  bool operator==(const SmallVec &Other) const {
    return Count == Other.Count &&
           std::equal(begin(), end(), Other.begin());
  }

private:
  void assign(const T *Src, uint32_t SrcCount) {
    if (SrcCount > N && HeapCap < SrcCount)
      reallocHeap(SrcCount);
    Count = SrcCount;
    std::memcpy(data(), Src, SrcCount * sizeof(T));
  }

  void moveFrom(SmallVec &Other) {
    if (Other.Count > N) { // Steal the heap block.
      Heap = Other.Heap;
      HeapCap = Other.HeapCap;
      Count = Other.Count;
      Other.Heap = nullptr;
      Other.HeapCap = 0;
      Other.Count = 0;
    } else {
      Count = Other.Count;
      std::memcpy(Inline, Other.Inline, Other.Count * sizeof(T));
    }
  }

  void reallocHeap(uint32_t NewCap) {
    T *Fresh = new T[NewCap];
    if (Count > N)
      std::memcpy(Fresh, Heap, Count * sizeof(T));
    delete[] Heap;
    Heap = Fresh;
    HeapCap = NewCap;
  }

  void freeHeap() {
    delete[] Heap;
    Heap = nullptr;
    HeapCap = 0;
  }

  T Inline[N];
  T *Heap = nullptr;
  uint32_t HeapCap = 0;
  uint32_t Count = 0;
};

} // namespace cuba

#endif // CUBA_SUPPORT_SMALLVEC_H
