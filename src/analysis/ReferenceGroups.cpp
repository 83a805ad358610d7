//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/ReferenceGroups.h"

#include <cstdint>
#include <map>
#include <string>

using namespace padx;
using namespace padx::analysis;

namespace {

/// One nest's count for countGroupIterations. Budget is the number of
/// outer iterations still to enumerate before the midpoint fallback.
class IterationCounter {
public:
  double count(const std::vector<const ir::Loop *> &Nest) {
    if (Nest.empty())
      return 1;
    Env.clear();
    Budget = 10'000'000;
    return walk(Nest, 0);
  }

private:
  int64_t eval(const ir::AffineExpr &E) const {
    return E.evaluate([&](const std::string &V) { return Env.at(V); });
  }

  static int64_t trips(int64_t Lo, int64_t Hi, int64_t Step) {
    if (Step > 0)
      return Hi >= Lo ? (Hi - Lo) / Step + 1 : 0;
    return Hi <= Lo ? (Lo - Hi) / -Step + 1 : 0;
  }

  double walk(const std::vector<const ir::Loop *> &Nest, size_t Depth) {
    const ir::Loop &L = *Nest[Depth];
    int64_t Lo = eval(L.Lower);
    int64_t Hi = eval(L.Upper);
    int64_t N = trips(Lo, Hi, L.Step);
    if (Depth + 1 == Nest.size())
      return static_cast<double>(N);
    if (Budget <= 0 || N > Budget) {
      // Fallback: midpoint product for the rest of the nest.
      Env[L.IndexVar] = (Lo + Hi) / 2;
      return static_cast<double>(N) * walk(Nest, Depth + 1);
    }
    Budget -= N;
    double Sum = 0;
    for (int64_t V = Lo; L.Step > 0 ? V <= Hi : V >= Hi; V += L.Step) {
      Env[L.IndexVar] = V;
      Sum += walk(Nest, Depth + 1);
    }
    return Sum;
  }

  std::map<std::string, int64_t> Env;
  int64_t Budget = 0;
};

} // namespace

std::vector<LoopGroup>
analysis::collectLoopGroups(const ir::Program &P) {
  // Keyed by innermost loop; iteration order of results follows first
  // appearance to keep downstream padding decisions deterministic.
  std::vector<LoopGroup> Groups;
  std::map<const ir::Loop *, size_t> Index;

  P.forEachAssign([&](const ir::Assign &A,
                      const std::vector<const ir::Loop *> &Nest) {
    if (Nest.empty())
      return;
    const ir::Loop *Inner = Nest.back();
    auto It = Index.find(Inner);
    if (It == Index.end()) {
      It = Index.emplace(Inner, Groups.size()).first;
      LoopGroup G;
      G.Innermost = Inner;
      G.Nest = Nest;
      Groups.push_back(std::move(G));
    }
    LoopGroup &G = Groups[It->second];
    for (const ir::ArrayRef &R : A.Refs) {
      RefInstance RI;
      RI.Ref = &R;
      RI.Stmt = &A;
      RI.Nest = Nest;
      G.Refs.push_back(std::move(RI));
    }
  });
  return Groups;
}

std::vector<double>
analysis::countGroupIterations(const std::vector<LoopGroup> &Groups) {
  std::vector<double> Counts;
  Counts.reserve(Groups.size());
  IterationCounter IC;
  for (const LoopGroup &G : Groups)
    Counts.push_back(IC.count(G.Nest));
  return Counts;
}
