//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// libFuzzer entry point for the PadLang front door: arbitrary bytes go
/// through lex → parse → validate → diagnostic rendering, and inputs
/// that turn out to be small, well-formed programs continue through the
/// padding pipeline (PAD, PADLITE, static estimation, trace-driven
/// simulation). The invariant under test is "no crash, no sanitizer
/// report, bounded time" — never output quality.
///
/// Built two ways (tests/fuzz/CMakeLists.txt):
///  - with -DPADX_FUZZ=ON under Clang, as the libFuzzer binary
///    `padx_fuzz_parser`;
///  - in every configuration, linked under `padx_fuzz_corpus`, a plain
///    main() that replays the checked-in corpus + crasher files as a
///    ctest, so every past crash stays fixed in both the release and
///    the ASan+UBSan build.
///
//===----------------------------------------------------------------------===//

#include "core/Padding.h"
#include "frontend/Parser.h"
#include "ir/Program.h"
#include "layout/DataLayout.h"
#include "search/CostModel.h"
#include "support/Guard.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <variant>

using namespace padx;

namespace {

/// Magnitude ceiling for every runtime value (loop variables, subscript
/// results) the pipeline may compute for a fuzz input. Small enough that
/// any product with an in-footprint stride stays far from int64 range.
constexpr int64_t kMaxFuzzValue = int64_t(1) << 24;
/// Ceiling on the total number of accesses a fuzz input may simulate:
/// keeps one libFuzzer execution in the low milliseconds.
constexpr uint64_t kMaxFuzzAccesses = uint64_t(1) << 20;
/// Footprint ceiling (1 MiB) for running the padding pipeline.
constexpr int64_t kMaxFuzzFootprint = int64_t(1) << 20;

struct Interval {
  int64_t Lo = 0, Hi = 0;
};

/// Conservative interval analysis over a validated program, used to
/// decide whether the padding pipeline (and especially the simulator)
/// can run on it within the fuzz budgets. Rejects anything whose value
/// ranges it cannot bound tightly.
class GeometryGate {
public:
  explicit GeometryGate(const ir::Program &P) : P(P) {}

  bool smallEnough() {
    for (const ir::ArrayVariable &V : P.arrays())
      if (V.RandomMin < -kMaxFuzzValue || V.RandomMin > kMaxFuzzValue ||
          V.RandomMax < -kMaxFuzzValue || V.RandomMax > kMaxFuzzValue)
        return false;
    uint64_t Accesses = 0;
    return walk(P.body(), 1, Accesses);
  }

private:
  bool inRange(int64_t V) const {
    return V >= -kMaxFuzzValue && V <= kMaxFuzzValue;
  }

  /// Interval-evaluates \p E over the current loop-variable ranges;
  /// false when any intermediate overflows or the result range leaves
  /// [-kMaxFuzzValue, kMaxFuzzValue].
  bool evalAffine(const ir::AffineExpr &E, Interval &Out) const {
    Interval R{E.constantPart(), E.constantPart()};
    for (const ir::AffineTerm &T : E.terms()) {
      auto It = Env.find(T.Var);
      if (It == Env.end())
        return false; // Unbound: validator rejects, stay conservative.
      int64_t A = 0, B = 0;
      if (mulOverflow(T.Coeff, It->second.Lo, A) ||
          mulOverflow(T.Coeff, It->second.Hi, B))
        return false;
      if (addOverflow(R.Lo, std::min(A, B), R.Lo) ||
          addOverflow(R.Hi, std::max(A, B), R.Hi))
        return false;
    }
    if (!inRange(R.Lo) || !inRange(R.Hi))
      return false;
    Out = R;
    return true;
  }

  bool walk(const std::vector<ir::Stmt> &Stmts, uint64_t Mult,
            uint64_t &Accesses) {
    for (const ir::Stmt &S : Stmts) {
      if (const auto *A = std::get_if<ir::Assign>(&S)) {
        for (const ir::ArrayRef &R : A->Refs) {
          Interval I;
          for (const ir::AffineExpr &Sub : R.Subscripts)
            if (!evalAffine(Sub, I))
              return false;
        }
        Accesses += Mult * (A->Refs.size() + 1);
        if (Accesses > kMaxFuzzAccesses)
          return false;
        continue;
      }
      const auto &L = std::get<std::unique_ptr<ir::Loop>>(S);
      Interval Lo, Hi;
      if (!evalAffine(L->Lower, Lo) || !evalAffine(L->Upper, Hi))
        return false;
      int64_t Span = 0;
      if (subOverflow(Hi.Hi, Lo.Lo, Span))
        return false;
      int64_t StepMag = L->Step > 0 ? L->Step : -L->Step;
      if (StepMag == 0)
        return false;
      uint64_t Trips =
          Span < 0 ? 1 : static_cast<uint64_t>(Span) / StepMag + 1;
      if (Trips > kMaxFuzzAccesses || Mult > kMaxFuzzAccesses / Trips)
        return false;
      // The variable ranges over the hull of both bounds regardless of
      // step sign.
      Interval Range{std::min(Lo.Lo, Hi.Lo), std::max(Lo.Hi, Hi.Hi)};
      auto [It, Inserted] = Env.emplace(L->IndexVar, Range);
      if (!Inserted)
        return false; // Shadowing: validator rejects.
      bool OK = walk(L->Body, Mult * Trips, Accesses);
      Env.erase(It);
      if (!OK)
        return false;
    }
    return true;
  }

  const ir::Program &P;
  std::map<std::string, Interval> Env;
};

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string Source(reinterpret_cast<const char *>(Data), Size);

  DiagnosticEngine Diags;
  std::optional<ir::Program> P = frontend::parseProgram(Source, Diags);
  // Always exercise both renderers: caret/snippet arithmetic over
  // arbitrary byte streams is exactly where off-by-ones hide.
  (void)Diags.str();
  (void)Diags.render(Source, "fuzz.pad");
  if (!P)
    return 0;

  // The program parsed and validated. Run the padding pipeline when the
  // geometry is small enough to bound time, memory and address
  // arithmetic.
  layout::DataLayout Orig = layout::originalLayout(*P);
  if (layout::checkFootprint(Orig, kMaxFuzzFootprint))
    return 0;
  if (!GeometryGate(*P).smallEnough())
    return 0;

  CacheConfig Cache = CacheConfig::base16K();
  pad::PaddingResult Pad = pad::runPad(*P, Cache);
  pad::PaddingResult Lite = pad::runPadLite(*P, Cache);

  // Exact simulation of both layouts — the cost model is the production
  // objective function, so it must survive everything the gate admits.
  search::SimulationCostModel Exact(MachineModel::singleLevel(Cache));
  (void)Exact.evaluate(Pad.Layout);
  (void)Exact.evaluate(Lite.Layout);
  return 0;
}
