//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "exec/TraceRunner.h"

#include "analysis/ConflictDistance.h"
#include "support/Guard.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <random>
#include <string>
#include <variant>

using namespace padx;
using namespace padx::exec;

namespace {

/// An affine expression compiled to environment slots: Const +
/// sum(Env[Slot] * Coeff).
struct CompiledAffine {
  int64_t Const = 0;
  std::vector<std::pair<int, int64_t>> Terms;

  int64_t eval(const std::vector<int64_t> &Env) const {
    int64_t V = Const;
    for (const auto &[Slot, Coeff] : Terms)
      V += Env[Slot] * Coeff;
    return V;
  }
};

struct CompiledRef {
  /// Byte address as an affine function of the environment (affine refs),
  /// or the partial address excluding the indirect dimension's
  /// contribution (indirect refs).
  CompiledAffine Addr;
  int32_t Size = 0;
  bool IsWrite = false;

  // Indirection support.
  bool Indirect = false;
  /// Byte address of the index-array element to read.
  CompiledAffine IndexAddr;
  /// Element offset into the index array's value storage.
  CompiledAffine IndexOffset;
  /// Which value table holds the index array's contents.
  int ValueTable = -1;
  /// The indirect dimension's lower bound and byte stride: the final
  /// address is Addr + (value - LowerBound) * StrideBytes.
  int64_t IndirectLower = 0;
  int64_t IndirectStrideBytes = 0;
};

struct CompiledAssign {
  std::vector<CompiledRef> Refs;
};

struct CompiledLoop;
using CompiledStmt = std::variant<CompiledAssign, CompiledLoop>;

struct CompiledLoop {
  int Slot = -1;
  CompiledAffine Lower;
  CompiledAffine Upper;
  int64_t Step = 1;
  std::vector<CompiledStmt> Body;
  /// True when some loop bound inside the body references this loop's
  /// variable (a triangular nest): analytic access counting must then
  /// iterate this level instead of multiplying by the trip count.
  bool IterateForCount = false;
};

/// Does any loop bound within \p Stmts reference environment slot
/// \p Slot?
bool boundsUseSlot(const std::vector<CompiledStmt> &Stmts, int Slot) {
  auto AffineUses = [Slot](const CompiledAffine &A) {
    for (const auto &[S, Coeff] : A.Terms)
      if (S == Slot && Coeff != 0)
        return true;
    return false;
  };
  for (const CompiledStmt &S : Stmts) {
    const auto *L = std::get_if<CompiledLoop>(&S);
    if (!L)
      continue;
    if (AffineUses(L->Lower) || AffineUses(L->Upper) ||
        boundsUseSlot(L->Body, Slot))
      return true;
  }
  return false;
}

} // namespace

struct TraceRunner::Impl {
  const ir::Program &Prog;
  const layout::DataLayout &DL;
  RunOptions Options;

  std::vector<CompiledStmt> Body;
  std::vector<int64_t> Env;
  // Per-run() trace accounting for RunOptions::MaxAccesses.
  uint64_t AccessLimit = 0;
  uint64_t Emitted = 0;
  bool Truncated = false;
  bool IndirectOOR = false;
  /// Materialized contents of initialized int arrays, keyed by value
  /// table index stored in CompiledRef::ValueTable.
  std::vector<std::vector<int32_t>> ValueTables;
  std::map<unsigned, int> TableOfArray;

  // Compile-time state.
  std::map<std::string, int> SlotOfVar;
  int NumSlots = 0;
  /// Any indirect ref anywhere: analytic counting is then unsound (an
  /// out-of-range index ends the walk early) and falls back to walking.
  bool HasIndirect = false;

  Impl(const ir::Program &P, const layout::DataLayout &DL,
       const RunOptions &Options)
      : Prog(P), DL(DL), Options(Options) {
    assert(DL.allBasesAssigned() && "layout must be complete");
    Body = compileStmts(P.body());
    Env.assign(NumSlots, 0);
  }

  CompiledAffine compileAffine(const ir::AffineExpr &E) const {
    CompiledAffine C;
    C.Const = E.constantPart();
    for (const ir::AffineTerm &T : E.terms()) {
      auto It = SlotOfVar.find(T.Var);
      assert(It != SlotOfVar.end() && "unbound loop variable");
      C.Terms.emplace_back(It->second, T.Coeff);
    }
    return C;
  }

  int valueTableFor(unsigned ArrayId) {
    auto It = TableOfArray.find(ArrayId);
    if (It != TableOfArray.end())
      return It->second;
    assert(Prog.array(ArrayId).Init != ir::ArrayInitKind::None &&
           "indirect read of uninitialized index array");
    ValueTables.push_back(
        indexArrayValues(Prog.array(ArrayId), DL.numElements(ArrayId)));
    int Table = static_cast<int>(ValueTables.size() - 1);
    TableOfArray.emplace(ArrayId, Table);
    return Table;
  }

  CompiledRef compileRef(const ir::ArrayRef &R) {
    const ir::ArrayVariable &V = Prog.array(R.ArrayId);
    CompiledRef C;
    C.Size = static_cast<int32_t>(V.ElemSize);
    C.IsWrite = R.IsWrite;
    HasIndirect |= R.IndirectDim >= 0;

    int64_t Base = DL.layout(R.ArrayId).BaseAddr;
    ir::AffineExpr Elems; // element offset, excluding any indirect dim
    int64_t Stride = 1;
    for (unsigned D = 0, E = static_cast<unsigned>(R.Subscripts.size());
         D != E; ++D) {
      if (static_cast<int>(D) == R.IndirectDim) {
        C.Indirect = true;
        C.IndirectLower = V.LowerBounds[D];
        C.IndirectStrideBytes = Stride * V.ElemSize;
        // The read of the index array element itself.
        const ir::ArrayVariable &Idx = Prog.array(R.IndexArrayId);
        ir::AffineExpr IdxElems =
            R.Subscripts[D].plusConstant(-Idx.LowerBounds[0]);
        C.IndexAddr = compileAffine(
            IdxElems.scaled(Idx.ElemSize)
                .plusConstant(DL.layout(R.IndexArrayId).BaseAddr));
        C.IndexOffset = compileAffine(IdxElems);
        C.ValueTable = valueTableFor(R.IndexArrayId);
      } else {
        Elems = Elems.plus(
            R.Subscripts[D].plusConstant(-V.LowerBounds[D]).scaled(
                Stride));
      }
      Stride *= DL.dimSize(R.ArrayId, D);
    }
    C.Addr = compileAffine(Elems.scaled(V.ElemSize).plusConstant(Base));
    return C;
  }

  std::vector<CompiledStmt> compileStmts(const std::vector<ir::Stmt> &In) {
    std::vector<CompiledStmt> Out;
    for (const ir::Stmt &S : In) {
      if (const auto *A = std::get_if<ir::Assign>(&S)) {
        CompiledAssign CA;
        for (const ir::ArrayRef &R : A->Refs) {
          if (!Options.EmitScalarRefs &&
              Prog.array(R.ArrayId).isScalar())
            continue;
          CA.Refs.push_back(compileRef(R));
        }
        if (!CA.Refs.empty())
          Out.emplace_back(std::move(CA));
        continue;
      }
      const auto &L = std::get<std::unique_ptr<ir::Loop>>(S);
      CompiledLoop CL;
      CL.Lower = compileAffine(L->Lower);
      CL.Upper = compileAffine(L->Upper);
      CL.Step = L->Step;
      // Bind the slot after compiling the bounds: bounds may only use
      // outer variables.
      assert(!SlotOfVar.count(L->IndexVar) && "shadowed loop variable");
      CL.Slot = NumSlots++;
      SlotOfVar.emplace(L->IndexVar, CL.Slot);
      CL.Body = compileStmts(L->Body);
      SlotOfVar.erase(L->IndexVar);
      CL.IterateForCount = boundsUseSlot(CL.Body, CL.Slot);
      Out.emplace_back(std::move(CL));
    }
    return Out;
  }

  /// Counts one access against the limit; returns false once the trace
  /// budget is exhausted.
  bool countOne() {
    if (++Emitted > AccessLimit) {
      Truncated = true;
      return false;
    }
    return true;
  }

  void execAssign(const CompiledAssign &A, TraceSink &Sink) {
    for (const CompiledRef &R : A.Refs) {
      if (!R.Indirect) {
        if (!countOne())
          return;
        Sink.access(R.Addr.eval(Env), R.Size, R.IsWrite);
        continue;
      }
      // Read the index element, then access the indirected target.
      if (!countOne())
        return;
      Sink.access(R.IndexAddr.eval(Env), 4, /*IsWrite=*/false);
      int64_t Offset = R.IndexOffset.eval(Env);
      const std::vector<int32_t> &Table =
          ValueTables[static_cast<size_t>(R.ValueTable)];
      if (Offset < 0 || Offset >= static_cast<int64_t>(Table.size())) {
        // A subscript that leaves the index array would be an OOB read
        // of the value table; end the walk with a structured status
        // instead (asserting would make release behavior input-dependent
        // UB).
        IndirectOOR = true;
        Truncated = true;
        return;
      }
      int64_t Value = Table[static_cast<size_t>(Offset)];
      int64_t Addr = R.Addr.eval(Env) +
                     (Value - R.IndirectLower) * R.IndirectStrideBytes;
      if (!countOne())
        return;
      Sink.access(Addr, R.Size, R.IsWrite);
    }
  }

  /// Trip count of a loop with evaluated bounds; 0 when it never runs.
  /// Saturates on (adversarial) spans that overflow int64.
  static uint64_t tripCount(int64_t Lo, int64_t Hi, int64_t Step) {
    int64_t Span;
    if (Step > 0) {
      if (Lo > Hi)
        return 0;
      if (subOverflow(Hi, Lo, Span))
        return UINT64_MAX;
      return static_cast<uint64_t>(Span / Step) + 1;
    }
    if (Lo < Hi)
      return 0;
    if (subOverflow(Lo, Hi, Span))
      return UINT64_MAX;
    int64_t NegStep;
    if (subOverflow(0, Step, NegStep))
      return UINT64_MAX;
    return static_cast<uint64_t>(Span / NegStep) + 1;
  }

  /// Analytic access count: per statement, the reference count times the
  /// product of enclosing trip counts, with saturating arithmetic.
  /// Rectangular levels multiply; a level whose inner bounds depend on
  /// its variable is iterated (but only that level — its rectangular
  /// children still multiply). \p Ceiling lets deep recursion stop as
  /// soon as the running total can no longer matter.
  uint64_t countStmts(const std::vector<CompiledStmt> &Stmts,
                      uint64_t Ceiling) {
    uint64_t Total = 0;
    for (const CompiledStmt &S : Stmts) {
      if (Total >= Ceiling)
        return Total;
      if (const auto *A = std::get_if<CompiledAssign>(&S)) {
        uint64_t PerExec = 0;
        for (const CompiledRef &R : A->Refs)
          PerExec += R.Indirect ? 2 : 1;
        Total = satAddU64(Total, PerExec);
        continue;
      }
      const CompiledLoop &L = std::get<CompiledLoop>(S);
      int64_t Lo = L.Lower.eval(Env);
      int64_t Hi = L.Upper.eval(Env);
      uint64_t Trips = tripCount(Lo, Hi, L.Step);
      if (Trips == 0)
        continue;
      if (!L.IterateForCount) {
        Total = satAddU64(
            Total, satMulU64(Trips, countStmts(L.Body, Ceiling)));
        continue;
      }
      int64_t V = Lo;
      for (uint64_t I = 0; I != Trips && Total < Ceiling;
           ++I, V += L.Step) {
        Env[L.Slot] = V;
        Total = satAddU64(Total, countStmts(L.Body, Ceiling - Total));
      }
    }
    return Total;
  }

  void execStmts(const std::vector<CompiledStmt> &Stmts, TraceSink &Sink) {
    for (const CompiledStmt &S : Stmts) {
      if (Truncated)
        return;
      if (const auto *A = std::get_if<CompiledAssign>(&S)) {
        execAssign(*A, Sink);
        continue;
      }
      const CompiledLoop &L = std::get<CompiledLoop>(S);
      int64_t Lo = L.Lower.eval(Env);
      int64_t Hi = L.Upper.eval(Env);
      if (L.Step > 0) {
        for (int64_t V = Lo; V <= Hi && !Truncated; V += L.Step) {
          Env[L.Slot] = V;
          execStmts(L.Body, Sink);
        }
      } else {
        for (int64_t V = Lo; V >= Hi && !Truncated; V += L.Step) {
          Env[L.Slot] = V;
          execStmts(L.Body, Sink);
        }
      }
    }
  }
};

std::vector<int32_t> exec::indexArrayValues(const ir::ArrayVariable &V,
                                            int64_t Length) {
  std::vector<int32_t> Values(static_cast<size_t>(Length));
  switch (V.Init) {
  case ir::ArrayInitKind::Identity: {
    // Element at logical index lb + i holds lb + i.
    const int64_t Lower = V.LowerBounds.empty() ? 0 : V.LowerBounds[0];
    for (size_t I = 0; I != Values.size(); ++I)
      Values[I] = static_cast<int32_t>(Lower + static_cast<int64_t>(I));
    break;
  }
  case ir::ArrayInitKind::Random: {
    std::mt19937_64 Rng(V.RandomSeed);
    std::uniform_int_distribution<int64_t> Dist(V.RandomMin, V.RandomMax);
    for (int32_t &Val : Values)
      Val = static_cast<int32_t>(Dist(Rng));
    break;
  }
  case ir::ArrayInitKind::None:
    break;
  }
  return Values;
}

TraceRunner::TraceRunner(const ir::Program &Prog,
                         const layout::DataLayout &DL,
                         const RunOptions &Options)
    : P(std::make_unique<Impl>(Prog, DL, Options)) {}

TraceRunner::~TraceRunner() = default;

RunStatus TraceRunner::run(TraceSink &Sink) {
  P->AccessLimit =
      P->Options.MaxAccesses ? P->Options.MaxAccesses : UINT64_MAX;
  P->Emitted = 0;
  P->Truncated = false;
  P->IndirectOOR = false;
  P->execStmts(P->Body, Sink);
  if (P->IndirectOOR)
    return RunStatus::IndirectOutOfRange;
  return P->Truncated ? RunStatus::TraceLimitReached : RunStatus::Ok;
}

uint64_t TraceRunner::countAccesses() {
  // Indirect subscripts can end the walk early (IndirectOutOfRange), so
  // only the walk itself knows the emitted count.
  if (P->HasIndirect)
    return countAccessesByWalking();
  uint64_t Limit =
      P->Options.MaxAccesses ? P->Options.MaxAccesses : UINT64_MAX;
  P->Env.assign(P->Env.size(), 0);
  uint64_t Total = P->countStmts(P->Body, Limit);
  return std::min(Total, Limit);
}

uint64_t TraceRunner::countAccessesByWalking() {
  CountSink Counter;
  run(Counter);
  return Counter.Count;
}

exec::TraceSink::~TraceSink() = default;
