//===-- pds/ThreadSymmetry.cpp - Classes of interchangeable threads -------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "pds/ThreadSymmetry.h"

#include <algorithm>
#include <numeric>

#include "pds/VisibleSet.h"

using namespace cuba;

namespace {

/// True when threads \p A and \p B have the same alphabet, the same rules
/// in the same order (labels aside) and the same initial stack.
bool identicalThreads(const Cpds &C, const GlobalState &Init, unsigned A,
                      unsigned B) {
  const Pds &P = C.thread(A), &Q = C.thread(B);
  if (P.numSymbols() != Q.numSymbols() ||
      P.actions().size() != Q.actions().size() ||
      Init.Stacks[A] != Init.Stacks[B])
    return false;
  for (Sym S = 1; S <= P.numSymbols(); ++S)
    if (P.symbolName(S) != Q.symbolName(S))
      return false;
  for (size_t I = 0; I < P.actions().size(); ++I) {
    const Action &X = P.actions()[I], &Y = Q.actions()[I];
    if (X.SrcQ != Y.SrcQ || X.SrcSym != Y.SrcSym || X.DstQ != Y.DstQ ||
        X.Dst0 != Y.Dst0 || X.Dst1 != Y.Dst1)
      return false;
  }
  return true;
}

/// A bad pattern as comparable words: the shared state, then one entry
/// per thread, each value plus one with 0 for a wildcard.
using PatternKey = std::vector<uint64_t>;

/// True when swapping threads \p A and \p B maps the sorted pattern set
/// \p Keys onto itself.  Swaps are involutions, so it suffices that every
/// image lies in the set.
bool swapPreserves(const std::vector<PatternKey> &Keys, unsigned A,
                   unsigned B) {
  for (PatternKey K : Keys) {
    std::swap(K[1 + A], K[1 + B]);
    if (!std::binary_search(Keys.begin(), Keys.end(), K))
      return false;
  }
  return true;
}

uint64_t mulSat(uint64_t A, uint64_t B) {
  return A && B > UINT64_MAX / A ? UINT64_MAX : A * B;
}

/// C(N, K), saturating at UINT64_MAX.
uint64_t binomial(unsigned N, unsigned K) {
  uint64_t R = 1;
  // R = C(N - K + I, I) after step I, an integer that grows with I.  With
  // G = gcd(R, I), I / G divides N - K + I, so the step stays exact.
  for (unsigned I = 1; I <= K; ++I) {
    uint64_t G = std::gcd(R, uint64_t(I));
    R = mulSat(R / G, (N - K + I) / (I / G));
    if (R == UINT64_MAX)
      return R;
  }
  return R;
}

} // namespace

ThreadSymmetry::ThreadSymmetry(const Cpds &C)
    : Rep(C.numThreads()), Prev(C.numThreads(), NoThread),
      ClassOf(C.numThreads(), NoClass) {
  std::iota(Rep.begin(), Rep.end(), 0u);
}

ThreadSymmetry::ThreadSymmetry(const Cpds &C, const SafetyProperty &Prop)
    : ThreadSymmetry(C) {
  assert(C.frozen() && "ThreadSymmetry requires a frozen CPDS");
  unsigned N = C.numThreads();
  std::vector<PatternKey> Keys;
  for (const VisiblePattern &P : Prop.badPatterns()) {
    if (P.Tops.size() != N)
      return; // A malformed property: stay unreduced.
    PatternKey K{P.Q ? uint64_t(*P.Q) + 1 : 0};
    for (const std::optional<Sym> &S : P.Tops)
      K.push_back(S ? uint64_t(*S) + 1 : 0);
    Keys.push_back(std::move(K));
  }
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());

  // Two threads share a class when they are identical and swapping them
  // preserves the patterns.  Both relations are equivalences (for the
  // second, (a c) = (a b)(b c)(a b)), so comparing a thread with one
  // member of a class decides membership; and transpositions generate the
  // class's permutations, so every one of them preserves the patterns.
  GlobalState Init = C.initialState();
  std::vector<std::vector<unsigned>> Groups;
  for (unsigned T = 0; T < N; ++T) {
    auto It = std::find_if(Groups.begin(), Groups.end(), [&](const auto &G) {
      return identicalThreads(C, Init, G.front(), T) &&
             swapPreserves(Keys, G.front(), T);
    });
    if (It == Groups.end())
      Groups.push_back({T});
    else
      It->push_back(T);
  }
  for (std::vector<unsigned> &G : Groups) {
    if (G.size() < 2)
      continue;
    for (size_t I = 0; I < G.size(); ++I) {
      Rep[G[I]] = G.front();
      Prev[G[I]] = I ? G[I - 1] : NoThread;
      ClassOf[G[I]] = static_cast<unsigned>(Classes.size());
    }
    Classes.push_back(std::move(G));
  }
}

unsigned ThreadSymmetry::classifiedThreads() const {
  unsigned Sum = 0;
  for (const std::vector<unsigned> &K : Classes)
    Sum += static_cast<unsigned>(K.size());
  return Sum;
}

uint64_t ThreadSymmetry::canonicalize(uint64_t W,
                                      const VisiblePacker &P) const {
  Sym Buf[64]; // A packable word has at most 63 thread fields.
  for (const std::vector<unsigned> &K : Classes) {
    assert(K.size() <= 64 && "packed class wider than a word");
    for (size_t I = 0; I < K.size(); ++I)
      Buf[I] = static_cast<Sym>((W & P.topMask(K[I])) >> P.topShift(K[I]));
    std::sort(Buf, Buf + K.size());
    for (size_t I = 0; I < K.size(); ++I)
      W = (W & ~P.topMask(K[I])) | uint64_t(Buf[I]) << P.topShift(K[I]);
  }
  return W;
}

uint64_t ThreadSymmetry::orbitSize(const Sym *Tops) const {
  uint64_t Size = 1;
  for (const std::vector<unsigned> &K : Classes) {
    // m! / (c_1! ... c_r!) as the product of C(c_1 + .. + c_i, c_i) over
    // the runs of equal entries, which are contiguous in canonical form.
    unsigned Seen = 0;
    for (size_t I = 0; I < K.size();) {
      size_t J = I + 1;
      while (J < K.size() && Tops[K[J]] == Tops[K[I]])
        ++J;
      unsigned Run = static_cast<unsigned>(J - I);
      Seen += Run;
      Size = mulSat(Size, binomial(Seen, Run));
      I = J;
    }
  }
  return Size;
}
