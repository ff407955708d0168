//===-- tests/DetTrace.h - Deterministic halves of trace and metrics ------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract's comparison forms (obs/Trace.h): a rendered
/// trace stripped of everything schedule-dependent, and the
/// deterministic half of the metrics snapshot.  Shared by the jobs-N ==
/// jobs-1 suites.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTS_DETTRACE_H
#define CUBA_TESTS_DETTRACE_H

#include <cctype>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "obs/Metrics.h"

namespace cuba::testing {

/// The documented stripping rule, implemented as the line-local text
/// transformation the one-event-per-line rendering guarantees.  Trailing
/// commas are dropped too: removing a line whose successor was the last
/// event must not leave the two sides differing by a separator.
inline std::string stripTrace(const std::string &Doc) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Doc.size()) {
    size_t Eol = Doc.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Doc.size();
    std::string Line = Doc.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.find("\"cat\": \"wall\"") != std::string::npos ||
        Line.find("\"ph\": \"M\"") != std::string::npos)
      continue;
    for (const char *Key : {"\"ts\": ", "\"dur\": ", "\"tid\": "}) {
      size_t K = Line.find(Key);
      if (K == std::string::npos)
        continue;
      size_t V = K + std::strlen(Key);
      size_t E = V;
      while (E < Line.size() &&
             std::isdigit(static_cast<unsigned char>(Line[E])))
        ++E;
      Line.replace(V, E - V, "0");
    }
    if (!Line.empty() && Line.back() == ',')
      Line.pop_back();
    Out += Line;
    Out += '\n';
  }
  return Out;
}

/// The deterministic half of a metrics snapshot, as comparable tuples
/// (name, kind, value, histogram buckets).
using DetMetrics =
    std::vector<std::tuple<std::string, int, uint64_t, std::vector<uint64_t>>>;

inline DetMetrics detMetrics() {
  DetMetrics Out;
  for (const obs::InstrumentSnapshot &S : obs::Metrics::snapshot())
    if (S.Deterministic)
      Out.emplace_back(S.Name, static_cast<int>(S.K), S.Value, S.Buckets);
  return Out;
}

} // namespace cuba::testing

#endif // CUBA_TESTS_DETTRACE_H
