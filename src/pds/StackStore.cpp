//===-- pds/StackStore.cpp - Hash-consed prefix-sharing stacks ------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "pds/StackStore.h"

#include <algorithm>

using namespace cuba;

StackId StackStore::intern(const Stack &W) {
  StackId Id = EmptyStackId;
  for (Sym S : W)
    Id = push(Id, S);
  return Id;
}

Stack StackStore::materialise(StackId Id) const {
  Stack W;
  for (StackId I = Id; I != EmptyStackId; I = Nodes[I].Rest)
    W.push_back(Nodes[I].Top);
  std::reverse(W.begin(), W.end());
  return W;
}

size_t StackStore::depth(StackId Id) const {
  size_t D = 0;
  for (StackId I = Id; I != EmptyStackId; I = Nodes[I].Rest)
    ++D;
  return D;
}
