//===-- models/Workloads.cpp - BST, FileCrawler and Proc-2 models ----------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Suites 4, 5 and 7 of Table 2, reconstructed from their descriptions
/// (see BUILDING.md, "Model reconstructions").  Structural targets
/// taken from the paper:
///
/// * BST-Insert: all threads recursive, FCR holds (descent steps are
///   gated on a round-robin turn token, so stacks grow only across
///   contexts), safe (the splice critical section is guarded).
/// * FileCrawler: one non-recursive dispatcher plus recursive workers,
///   FCR holds (descents consume dispatcher tokens), safe.
/// * Proc-2: recursive producers that can grow their stacks within a
///   single context (not FCR -- handled by the symbolic engine) plus
///   non-recursive consumers; safe (channel handshake discipline).
///
//===----------------------------------------------------------------------===//

#include "models/Models.h"

#include "support/Unreachable.h"

using namespace cuba;

static void freezeOrDie(CpdsFile &File, const char *Name) {
  if (auto R = File.System.freeze(); !R) {
    (void)Name;
    cuba_unreachable("built-in model failed to validate");
  }
}

CpdsFile cuba::models::buildBstInsert(unsigned Inserters,
                                      unsigned Searchers) {
  unsigned NumThreads = Inserters + Searchers;
  assert(NumThreads >= 1 && "BST needs at least one thread");
  CpdsFile File;
  Cpds &C = File.System;

  // Shared state: (turn in 0..T-1, splice bit) plus the err sink.  The
  // turn token gates tree descent; splice is the inserter's critical
  // section around link redirection (Kung-Lehman's single-writer rule).
  std::vector<std::vector<QState>> Q(NumThreads,
                                     std::vector<QState>(2));
  for (unsigned Turn = 0; Turn < NumThreads; ++Turn)
    for (int Sp = 0; Sp < 2; ++Sp)
      Q[Turn][Sp] = C.addSharedState("t" + std::to_string(Turn) +
                                     (Sp ? "s1" : "s0"));
  QState Err = C.addSharedState("err");
  C.setInitialShared(Q[0][0]);

  for (unsigned I = 0; I < NumThreads; ++I) {
    bool IsInserter = I < Inserters;
    unsigned T = C.addThread((IsInserter ? "ins" : "sea") +
                             std::to_string(I + 1));
    Pds &P = C.thread(T);
    Sym D = P.addSymbol("d"); // descending at a node
    Sym R = P.addSymbol("r"); // return frame of a descent
    Sym F = P.addSymbol("f"); // unwinding after the action at the leaf
    Sym H = P.addSymbol("h"); // halted
    unsigned Next = (I + 1) % NumThreads;
    for (unsigned Turn = 0; Turn < NumThreads; ++Turn)
      for (int Sp = 0; Sp < 2; ++Sp) {
        QState From = Q[Turn][Sp];
        if (Turn == I) {
          // Descend one level: push a new node frame over a return
          // frame, passing the turn (this gating yields FCR).
          P.addAction({From, D, Q[Next][Sp], D, R, "descend"});
          if (IsInserter) {
            // Reached the insertion point: enter the splice section
            // (atomic test-and-set on the splice bit).
            if (Sp == 0)
              P.addAction({From, D, Q[Next][1], F, EpsSym, "splice"});
          } else {
            // Reached the sought node: done, start unwinding.  Readers
            // are unaffected by the splice bit (Kung-Lehman searchers
            // take no locks).
            P.addAction({From, D, Q[Next][Sp], F, EpsSym, "found"});
          }
        }
        // Unwinding is ungated: pop the f frame, convert the exposed
        // return frame, repeat.
        P.addAction({From, F, From, EpsSym, EpsSym, "up"});
        P.addAction({From, R, From, F, EpsSym, "cont"});
        // Bottom of the stack: finish.  Inserters release the splice
        // bit; the assertion checks they still hold it (the bad pattern
        // below fires if an inserter unwinds without the bit).
        if (IsInserter) {
          if (Sp == 1)
            P.addAction({From, EpsSym, Q[Turn][0], H, EpsSym, "release"});
          else
            P.addAction({From, EpsSym, Err, H, EpsSym, "assert"});
        } else {
          P.addAction({From, EpsSym, From, H, EpsSym, "halt"});
        }
      }
    C.setInitialStack(T, {D});
  }

  VisiblePattern Bad;
  Bad.Q = Err;
  Bad.Tops.assign(NumThreads, std::nullopt);
  File.Property.addBadPattern(std::move(Bad));

  freezeOrDie(File, "bst");
  return File;
}

CpdsFile cuba::models::buildFileCrawler(unsigned Workers) {
  assert(Workers >= 1 && "crawler needs at least one worker");
  CpdsFile File;
  Cpds &C = File.System;

  // Shared state: (open bit, token bit) plus err.  The dispatcher hands
  // out one directory token at a time and eventually closes the crawl;
  // workers consume a token per descent.
  QState Q[2][2];
  for (int Open = 0; Open < 2; ++Open)
    for (int Tok = 0; Tok < 2; ++Tok)
      Q[Open][Tok] = C.addSharedState(std::string(Open ? "open" : "closed") +
                                      (Tok ? "_tok" : ""));
  QState Err = C.addSharedState("err");
  C.setInitialShared(Q[1][0]);

  // Dispatcher: non-recursive loop issuing tokens, then closing.
  {
    unsigned T = C.addThread("dispatcher");
    Pds &P = C.thread(T);
    Sym M = P.addSymbol("m"); // main loop
    Sym E = P.addSymbol("e"); // closed, done
    P.addAction({Q[1][0], M, Q[1][1], M, EpsSym, "issue"});
    P.addAction({Q[1][0], M, Q[0][0], E, EpsSym, "close"});
    C.setInitialStack(T, {M});
  }

  for (unsigned I = 0; I < Workers; ++I) {
    unsigned T = C.addThread("worker" + std::to_string(I + 1));
    Pds &P = C.thread(T);
    Sym W = P.addSymbol("w"); // walking a directory
    Sym R = P.addSymbol("r"); // return frame
    Sym F = P.addSymbol("f"); // unwinding
    for (int Open = 0; Open < 2; ++Open)
      for (int Tok = 0; Tok < 2; ++Tok) {
        QState From = Q[Open][Tok];
        // Descend into a subdirectory: consumes a token (gating = FCR).
        if (Tok == 1) {
          if (Open == 1)
            P.addAction({From, W, Q[Open][0], W, R, "enter"});
          else
            // A token after close would be a dispatcher bug; the worker
            // asserts it never happens.
            P.addAction({From, W, Err, W, EpsSym, "assert"});
        }
        // Finish the current directory and unwind.
        P.addAction({From, W, From, F, EpsSym, "done-dir"});
        P.addAction({From, F, From, EpsSym, EpsSym, "up"});
        P.addAction({From, R, From, F, EpsSym, "cont"});
      }
    C.setInitialStack(T, {W});
  }

  VisiblePattern Bad;
  Bad.Q = Err;
  Bad.Tops.assign(C.numThreads(), std::nullopt);
  File.Property.addBadPattern(std::move(Bad));

  freezeOrDie(File, "crawler");
  return File;
}

CpdsFile cuba::models::buildProc2() {
  CpdsFile File;
  Cpds &C = File.System;

  // Shared state: the one-slot channel {empty, full, ack}.
  QState Empty = C.addSharedState("empty");
  QState Full = C.addSharedState("full");
  QState Ack = C.addSharedState("ack");
  C.setInitialShared(Empty);
  const QState Slots[3] = {Empty, Full, Ack};

  // Two recursive producers: proc() { if (*) call proc(); send(); } --
  // the recursion is *not* gated on shared state, so a single context
  // grows the stack without bound: the system is not FCR and exercises
  // the symbolic engine, matching the paper's Table 2 row.
  for (int I = 0; I < 2; ++I) {
    unsigned T = C.addThread("prod" + std::to_string(I + 1));
    Pds &P = C.thread(T);
    Sym Pc = P.addSymbol("p"); // deciding
    Sym S = P.addSymbol("s");  // sending
    Sym W = P.addSymbol("w");  // waiting for the ack
    for (QState Q : Slots) {
      P.addAction({Q, Pc, Q, Pc, S, "call"}); // recurse; send on return
      P.addAction({Q, Pc, Q, S, EpsSym, "base"});
    }
    P.addAction({Empty, S, Full, W, EpsSym, "send"});
    P.addAction({Ack, W, Empty, EpsSym, EpsSym, "got-ack"}); // return
    C.setInitialStack(T, {Pc});
  }

  // Two non-recursive consumers acknowledging messages.
  for (int I = 0; I < 2; ++I) {
    unsigned T = C.addThread("cons" + std::to_string(I + 1));
    Pds &P = C.thread(T);
    Sym Cc = P.addSymbol("c");
    P.addAction({Full, Cc, Ack, Cc, EpsSym, "recv"});
    C.setInitialStack(T, {Cc});
  }

  // Safety: an ack only ever exists while its sender still waits -- the
  // channel state `ack` with no producer at `w` is unreachable.  All
  // top-of-stack combinations without a `w` are bad patterns.
  for (Sym T1 : {C.thread(0).symbolByName("p"), C.thread(0).symbolByName("s"),
                 EpsSym})
    for (Sym T2 : {C.thread(1).symbolByName("p"),
                   C.thread(1).symbolByName("s"), EpsSym}) {
      VisiblePattern Bad;
      Bad.Q = Ack;
      Bad.Tops = {std::optional<Sym>(T1), std::optional<Sym>(T2),
                  std::nullopt, std::nullopt};
      File.Property.addBadPattern(std::move(Bad));
    }

  freezeOrDie(File, "proc2");
  return File;
}
