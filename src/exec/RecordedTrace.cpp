//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "exec/RecordedTrace.h"

#include "support/Compiler.h"
#include "support/Guard.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <string>
#include <variant>

using namespace padx;
using namespace padx::exec;

namespace {

/// Compressed stream storage ceiling. A trace that cannot be expressed
/// under this in block form (straight-line megaprograms, loops nested
/// inside data-dependent control) is recorded poorly anyway, so the
/// recorder declines and callers keep direct tracing.
constexpr size_t kMaxStorageBytes = size_t(256) << 20;

/// An affine expression compiled to environment slots (same shape as the
/// TraceRunner's compiled form).
struct CAffine {
  int64_t Const = 0;
  std::vector<std::pair<int, int64_t>> Terms;

  int64_t eval(const std::vector<int64_t> &Env) const {
    int64_t V = Const;
    for (const auto &[Slot, Coeff] : Terms)
      V += Env[Slot] * Coeff;
    return V;
  }

  int64_t coeffOf(int Slot) const {
    for (const auto &[S, Coeff] : Terms)
      if (S == Slot)
        return Coeff;
    return 0;
  }

  bool uses(int Slot) const { return coeffOf(Slot) != 0; }
};

/// One reference, decomposed per dimension: DimIndex[k] evaluates to the
/// zero-based logical index of dimension k (subscript minus the declared
/// lower bound). The decomposition is what makes the recording
/// layout-independent: any layout's address is
///   base + sum_k DimIndex[k] * padded_stride_bytes[k].
struct CRef {
  uint32_t ArrayId = 0;
  int32_t ElemSize = 0;
  bool IsWrite = false;
  std::vector<CAffine> DimIndex;
  /// Gathered refs: DimIndex[GatherDim] is the offset into value table
  /// Table, whose entry minus GatherLower is the dimension's index.
  int32_t GatherDim = -1;
  uint32_t Table = 0;
  int64_t GatherLower = 0;
  /// Index reads: the index array's declared length, which every
  /// emitted offset must stay under; -1 for every other ref.
  int64_t IndexLimit = -1;
};

struct CLoop;
struct CAssign {
  std::vector<CRef> Refs;
  /// Pattern used when this assign is emitted outside an innermost loop
  /// (one block per execution, zero deltas).
  uint32_t LoosePattern = 0;
};
using CStmt = std::variant<CAssign, CLoop>;

struct CLoop {
  int Slot = -1;
  CAffine Lower;
  CAffine Upper;
  int64_t Step = 1;
  std::vector<CStmt> Body;
  /// True when the body is pure straight-line assignments, so the whole
  /// loop compresses to one block per execution of the loop itself.
  bool Innermost = false;
  uint32_t Pattern = 0; ///< Only meaningful when Innermost.
};

uint64_t nextTraceId() {
  static std::atomic<uint64_t> Counter{0};
  return ++Counter;
}

} // namespace

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

namespace padx {
namespace exec {

/// Builds a RecordedTrace: compiles the program into the decomposed
/// form above, derives the static patterns, then walks the loop nest
/// once emitting blocks.
class TraceRecorder {
public:
  TraceRecorder(const ir::Program &P, const RunOptions &Options,
                RecordedTrace &Out)
      : Prog(P), Options(Options), RT(Out) {}

  bool run(std::string &WhyNot) {
    if (Options.EmitScalarRefs) {
      WhyNot = "scalar-ref emission is not layout-invariant per slot; "
               "replay disabled";
      return false;
    }
    Body = compileStmts(Prog.body());
    if (Aborted) {
      WhyNot = AbortReason;
      return false;
    }
    buildPatterns(Body, /*InInnermost=*/false);
    Env.assign(NumSlots, 0);
    Limit = Options.MaxAccesses ? Options.MaxAccesses : UINT64_MAX;
    execStmts(Body);
    if (Aborted) {
      WhyNot = AbortReason;
      return false;
    }
    RT.NumAccesses = Emitted;
    RT.Status = Truncated ? RunStatus::TraceLimitReached : RunStatus::Ok;
    return true;
  }

private:
  const ir::Program &Prog;
  RunOptions Options;
  RecordedTrace &RT;

  std::vector<CStmt> Body;
  std::vector<int64_t> Env;
  std::map<std::string, int> SlotOfVar;
  int NumSlots = 0;
  /// Index array id -> its value table in RT.Tables.
  std::map<unsigned, uint32_t> TableOfArray;

  /// Per pattern, the compiled refs whose DimIndex functions produce the
  /// block start values (compile-side only; not stored in the trace).
  std::vector<std::vector<const CRef *>> PatternSources;

  uint64_t Limit = UINT64_MAX;
  uint64_t Emitted = 0;
  bool Truncated = false;
  bool Aborted = false;
  std::string AbortReason;

  void abort(std::string Reason) {
    if (!Aborted) {
      Aborted = true;
      AbortReason = std::move(Reason);
    }
  }

  CAffine compileAffine(const ir::AffineExpr &E) const {
    CAffine C;
    C.Const = E.constantPart();
    for (const ir::AffineTerm &T : E.terms()) {
      auto It = SlotOfVar.find(T.Var);
      assert(It != SlotOfVar.end() && "unbound loop variable");
      C.Terms.emplace_back(It->second, T.Coeff);
    }
    return C;
  }

  /// The value table of index array \p ArrayId, filled over its declared
  /// length on first use.
  uint32_t tableFor(unsigned ArrayId) {
    auto It = TableOfArray.find(ArrayId);
    if (It != TableOfArray.end())
      return It->second;
    const ir::ArrayVariable &Idx = Prog.array(ArrayId);
    const int64_t Length = Idx.numElements();
    if (static_cast<uint64_t>(Length) >
        (kMaxStorageBytes - RT.storageBytes()) / sizeof(int32_t)) {
      abort("index array '" + Idx.Name + "' exceeds the " +
            std::to_string(kMaxStorageBytes >> 20) +
            " MiB trace storage cap");
      return 0;
    }
    RT.Tables.push_back(indexArrayValues(Idx, Length));
    const uint32_t Table = static_cast<uint32_t>(RT.Tables.size() - 1);
    TableOfArray.emplace(ArrayId, Table);
    return Table;
  }

  /// Compiles \p R into \p Out. An indirect ref becomes two, in the
  /// walk's order: the index read, an affine 4-byte read of the index
  /// array, then the target, whose indirect dimension holds the same
  /// offset and gathers through the index array's value table.
  void compileRef(const ir::ArrayRef &R, std::vector<CRef> &Out) {
    const ir::ArrayVariable &V = Prog.array(R.ArrayId);
    CRef C;
    C.ArrayId = R.ArrayId;
    C.ElemSize = static_cast<int32_t>(V.ElemSize);
    C.IsWrite = R.IsWrite;
    C.DimIndex.reserve(R.Subscripts.size());
    for (unsigned D = 0, E = static_cast<unsigned>(R.Subscripts.size());
         D != E; ++D)
      C.DimIndex.push_back(compileAffine(
          R.Subscripts[D].plusConstant(-V.LowerBounds[D])));
    if (R.IndirectDim >= 0) {
      const ir::ArrayVariable &Idx = Prog.array(R.IndexArrayId);
      const unsigned D = static_cast<unsigned>(R.IndirectDim);
      CRef Read;
      Read.ArrayId = R.IndexArrayId;
      Read.ElemSize = static_cast<int32_t>(Idx.ElemSize);
      Read.DimIndex.push_back(compileAffine(
          R.Subscripts[D].plusConstant(-Idx.LowerBounds[0])));
      Read.IndexLimit = Idx.numElements();
      C.DimIndex[D] = Read.DimIndex.front();
      C.GatherDim = static_cast<int32_t>(D);
      C.Table = tableFor(R.IndexArrayId);
      C.GatherLower = V.LowerBounds[D];
      Out.push_back(std::move(Read));
    }
    Out.push_back(std::move(C));
  }

  std::vector<CStmt> compileStmts(const std::vector<ir::Stmt> &In) {
    std::vector<CStmt> Out;
    for (const ir::Stmt &S : In) {
      if (Aborted)
        return Out;
      if (const auto *A = std::get_if<ir::Assign>(&S)) {
        CAssign CA;
        for (const ir::ArrayRef &R : A->Refs)
          if (!Prog.array(R.ArrayId).isScalar()) // Register-promoted, same
            compileRef(R, CA.Refs);              // as the TraceRunner.
        if (!CA.Refs.empty())
          Out.emplace_back(std::move(CA));
        continue;
      }
      const auto &L = std::get<std::unique_ptr<ir::Loop>>(S);
      CLoop CL;
      CL.Lower = compileAffine(L->Lower);
      CL.Upper = compileAffine(L->Upper);
      CL.Step = L->Step;
      assert(!SlotOfVar.count(L->IndexVar) && "shadowed loop variable");
      CL.Slot = NumSlots++;
      SlotOfVar.emplace(L->IndexVar, CL.Slot);
      CL.Body = compileStmts(L->Body);
      SlotOfVar.erase(L->IndexVar);
      if (CL.Body.empty())
        continue; // Nothing inside ever touches memory.
      CL.Innermost = true;
      for (const CStmt &B : CL.Body)
        CL.Innermost &= std::holds_alternative<CAssign>(B);
      Out.emplace_back(std::move(CL));
    }
    return Out;
  }

  /// Appends one ref (with its per-iteration deltas for loop slot
  /// \p Slot scaled by \p Step; slot -1 means zero deltas) to the trace's
  /// flat ref table.
  void appendRef(const CRef &R, int Slot, int64_t Step) {
    RecordedTrace::Ref Out;
    Out.ArrayId = R.ArrayId;
    Out.Rank = static_cast<uint32_t>(R.DimIndex.size());
    Out.DeltaIndex = static_cast<uint32_t>(RT.Deltas.size());
    Out.ElemSize = R.ElemSize;
    Out.IsWrite = R.IsWrite;
    Out.GatherDim = R.GatherDim;
    Out.Table = R.Table;
    Out.GatherLower = R.GatherLower;
    for (const CAffine &Dim : R.DimIndex)
      RT.Deltas.push_back(Slot < 0 ? 0 : Dim.coeffOf(Slot) * Step);
    RT.Refs.push_back(Out);
  }

  uint32_t beginPattern() {
    RecordedTrace::Pattern Pat;
    Pat.RefBegin = static_cast<uint32_t>(RT.Refs.size());
    RT.Patterns.push_back(Pat);
    PatternSources.emplace_back();
    return static_cast<uint32_t>(RT.Patterns.size() - 1);
  }

  void finishPattern(uint32_t Index) {
    RecordedTrace::Pattern &Pat = RT.Patterns[Index];
    Pat.RefEnd = static_cast<uint32_t>(RT.Refs.size());
    uint32_t Starts = 0;
    for (uint32_t R = Pat.RefBegin; R != Pat.RefEnd; ++R) {
      Starts += RT.Refs[R].Rank;
      Pat.HasGather |= RT.Refs[R].GatherDim >= 0;
    }
    Pat.StartsPerIter = Starts;
  }

  /// Derives the static patterns: one per innermost loop (per-iteration
  /// deltas from the loop variable's coefficients), one per assignment
  /// that executes outside any innermost loop (zero deltas, one block
  /// per execution).
  void buildPatterns(std::vector<CStmt> &Stmts, bool InInnermost) {
    for (CStmt &S : Stmts) {
      if (auto *A = std::get_if<CAssign>(&S)) {
        if (InInnermost)
          continue; // Covered by the enclosing loop's pattern.
        A->LoosePattern = beginPattern();
        for (const CRef &R : A->Refs) {
          appendRef(R, /*Slot=*/-1, /*Step=*/0);
          PatternSources.back().push_back(&R);
        }
        finishPattern(A->LoosePattern);
        continue;
      }
      CLoop &L = std::get<CLoop>(S);
      if (!L.Innermost) {
        buildPatterns(L.Body, /*InInnermost=*/false);
        continue;
      }
      L.Pattern = beginPattern();
      for (const CStmt &B : L.Body)
        for (const CRef &R : std::get<CAssign>(B).Refs) {
          appendRef(R, L.Slot, L.Step);
          PatternSources.back().push_back(&R);
        }
      finishPattern(L.Pattern);
    }
  }

  /// Trip count of a loop with the given evaluated bounds; 0 when the
  /// loop body never runs. Aborts recording on overflowing spans.
  uint64_t tripCount(int64_t Lo, int64_t Hi, int64_t Step) {
    int64_t Span;
    if (Step > 0) {
      if (Lo > Hi)
        return 0;
      if (subOverflow(Hi, Lo, Span)) {
        abort("loop span overflows int64");
        return 0;
      }
      return static_cast<uint64_t>(Span / Step) + 1;
    }
    if (Lo < Hi)
      return 0;
    if (subOverflow(Lo, Hi, Span)) {
      abort("loop span overflows int64");
      return 0;
    }
    // -Step would overflow only for INT64_MIN, which the validator's
    // magnitude cap excludes; guard anyway.
    int64_t NegStep;
    if (subOverflow(0, Step, NegStep)) {
      abort("loop step overflows int64");
      return 0;
    }
    return static_cast<uint64_t>(Span / NegStep) + 1;
  }

  /// Emits the block(s) for \p Count executions of \p PatternIndex with
  /// start indices evaluated under the current environment. Applies the
  /// access limit exactly like the TraceRunner: a full-iteration prefix,
  /// then a partial iteration covering the leading refs of the pattern.
  void emitBlock(uint32_t PatternIndex, uint64_t Count) {
    const uint32_t RefBegin = RT.Patterns[PatternIndex].RefBegin;
    const uint64_t RefsPerIter =
        RT.Patterns[PatternIndex].RefEnd - RefBegin;
    assert(RefsPerIter > 0 && "patterns always carry refs");

    uint64_t Total;
    if (mulOverflowU64(Count, RefsPerIter, Total)) {
      if (Limit == UINT64_MAX) {
        // No limit was set and the true total overflows uint64; such a
        // trace cannot be recorded (nor directly simulated) anyway.
        abort("trace exceeds 2^64 accesses");
        return;
      }
      Total = UINT64_MAX;
    }
    const uint64_t Remaining = Limit - Emitted;
    uint64_t Iters = Count, TailRefs = 0;
    if (Total > Remaining) {
      Iters = Remaining / RefsPerIter;
      TailRefs = Remaining % RefsPerIter;
      Total = Remaining;
      Truncated = true;
    }

    if (Iters > 0)
      pushBlock(PatternIndex, Iters, /*AdvanceIters=*/0);
    if (TailRefs > 0) {
      // Ad-hoc pattern for the leading TailRefs refs of the truncated
      // iteration, starting where the full prefix left off.
      uint32_t Tail = beginPattern();
      for (uint64_t R = 0; R != TailRefs; ++R) {
        const uint32_t Src = RefBegin + static_cast<uint32_t>(R);
        RecordedTrace::Ref Copy = RT.Refs[Src];
        uint32_t OldDelta = Copy.DeltaIndex;
        Copy.DeltaIndex = static_cast<uint32_t>(RT.Deltas.size());
        for (uint32_t K = 0; K != Copy.Rank; ++K)
          RT.Deltas.push_back(RT.Deltas[OldDelta + K]);
        RT.Refs.push_back(Copy);
        PatternSources[Tail].push_back(PatternSources[PatternIndex][R]);
      }
      finishPattern(Tail);
      pushBlock(Tail, 1, /*AdvanceIters=*/Iters);
    }
    Emitted = satAddU64(Emitted, Total);
  }

  void pushBlock(uint32_t PatternIndex, uint64_t Count,
                 uint64_t AdvanceIters) {
    RecordedTrace::Block B;
    B.PatternIndex = PatternIndex;
    B.Count = Count;
    B.StartIndex = RT.Starts.size();
    const int64_t Advance = static_cast<int64_t>(AdvanceIters);
    const std::vector<const CRef *> &Sources =
        PatternSources[PatternIndex];
    const uint32_t RefBegin = RT.Patterns[PatternIndex].RefBegin;
    for (size_t I = 0; I != Sources.size(); ++I) {
      const RecordedTrace::Ref &Shape =
          RT.Refs[RefBegin + static_cast<uint32_t>(I)];
      for (uint32_t K = 0; K != Shape.Rank; ++K)
        RT.Starts.push_back(Sources[I]->DimIndex[K].eval(Env) +
                            Advance * RT.Deltas[Shape.DeltaIndex + K]);
      if (Sources[I]->IndexLimit >= 0)
        checkIndexRange(*Sources[I], RT.Starts.back(),
                        RT.Deltas[Shape.DeltaIndex], Count);
    }
    RT.Blocks.push_back(B);
    if (RT.storageBytes() > kMaxStorageBytes)
      abort("compressed trace exceeds " +
            std::to_string(kMaxStorageBytes >> 20) +
            " MiB; stream too block-heavy to replay profitably");
  }

  /// Declines unless the \p Count offsets \p First, First + Step, ...
  /// of index read \p Read all fall inside the index array's declared
  /// length. Offsets are affine in the block's iteration, so the first
  /// and last bound them all. Past the declared length the walk reads
  /// padding values or stops with IndirectOutOfRange, depending on the
  /// padded length, so no recording could serve every layout.
  void checkIndexRange(const CRef &Read, int64_t First, int64_t Step,
                       uint64_t Count) {
    int64_t Span, Last;
    const bool Overflow =
        Count - 1 > static_cast<uint64_t>(INT64_MAX) ||
        mulOverflow(static_cast<int64_t>(Count - 1), Step, Span) ||
        addOverflow(First, Span, Last);
    if (!Overflow && std::min(First, Last) >= 0 &&
        std::max(First, Last) < Read.IndexLimit)
      return;
    abort("index subscript leaves the " +
          std::to_string(Read.IndexLimit) + " declared elements of '" +
          Prog.array(Read.ArrayId).Name +
          "'; where the walk stops then depends on the layout");
  }

  void execStmts(const std::vector<CStmt> &Stmts) {
    for (const CStmt &S : Stmts) {
      if (Truncated || Aborted)
        return;
      if (const auto *A = std::get_if<CAssign>(&S)) {
        emitBlock(A->LoosePattern, 1);
        continue;
      }
      const CLoop &L = std::get<CLoop>(S);
      int64_t Lo = L.Lower.eval(Env);
      int64_t Hi = L.Upper.eval(Env);
      uint64_t Trips = tripCount(Lo, Hi, L.Step);
      if (Trips == 0 || Aborted)
        continue;
      if (L.Innermost) {
        // Start indices are the first iteration's; deltas carry the
        // rest of the loop.
        Env[L.Slot] = Lo;
        emitBlock(L.Pattern, Trips);
        continue;
      }
      int64_t V = Lo;
      for (uint64_t I = 0; I != Trips && !Truncated && !Aborted;
           ++I, V += L.Step) {
        Env[L.Slot] = V;
        execStmts(L.Body);
      }
    }
  }
};

} // namespace exec
} // namespace padx

std::unique_ptr<RecordedTrace>
RecordedTrace::record(const ir::Program &P, const RunOptions &Options,
                      std::string *WhyNot) {
  std::unique_ptr<RecordedTrace> T(new RecordedTrace());
  T->Prog = &P;
  T->Id = nextTraceId();
  std::string Reason;
  TraceRecorder R(P, Options, *T);
  if (!R.run(Reason)) {
    if (WhyNot)
      *WhyNot = Reason;
    return nullptr;
  }
  for (const Ref &Rf : T->Refs)
    T->TouchedArrays.push_back(Rf.ArrayId);
  std::sort(T->TouchedArrays.begin(), T->TouchedArrays.end());
  T->TouchedArrays.erase(
      std::unique(T->TouchedArrays.begin(), T->TouchedArrays.end()),
      T->TouchedArrays.end());
  return T;
}

std::vector<int64_t> RecordedTrace::addressKey(const layout::DataLayout &DL,
                                               int64_t Period) const {
  assert(&DL.program() == Prog && "layout of another program");
  assert(Period > 0 && "period must be positive");
  std::vector<int64_t> Key;
  if (TouchedArrays.empty())
    return Key;
  int64_t Origin = INT64_MAX;
  for (uint32_t Id : TouchedArrays)
    Origin = std::min(Origin, DL.layout(Id).BaseAddr);
  Origin -= floorMod(Origin, Period);
  for (uint32_t Id : TouchedArrays) {
    const layout::ArrayLayout &L = DL.layout(Id);
    Key.push_back(L.BaseAddr - Origin);
    if (!L.Dims.empty())
      Key.insert(Key.end(), L.Dims.begin(), L.Dims.end() - 1);
  }
  return Key;
}

size_t RecordedTrace::storageBytes() const {
  size_t Bytes = Refs.size() * sizeof(Ref) +
                 Deltas.size() * sizeof(int64_t) +
                 Patterns.size() * sizeof(Pattern) +
                 Blocks.size() * sizeof(Block) +
                 Starts.size() * sizeof(int64_t);
  for (const std::vector<int32_t> &Table : Tables)
    Bytes += Table.size() * sizeof(int32_t);
  return Bytes;
}

size_t RecordedTrace::numGatheredRefs() const {
  return static_cast<size_t>(
      std::count_if(Refs.begin(), Refs.end(),
                    [](const Ref &R) { return R.GatherDim >= 0; }));
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

TraceReplayer::TraceReplayer(const RecordedTrace &Trace) : T(Trace) {
  size_t MaxRefs = 0;
  for (const RecordedTrace::Pattern &P : T.Patterns)
    MaxRefs = std::max<size_t>(MaxRefs, P.RefEnd - P.RefBegin);
  AddrScratch.resize(MaxRefs);
  OffsetScratch.resize(MaxRefs);
  const size_t NumRefs = T.Refs.size();
  RefDeltaBytes.assign(NumRefs, 0);
  RefGatherStride.assign(NumRefs, 0);
  RefTable.assign(NumRefs, nullptr);
  RefOffsetDelta.assign(NumRefs, 0);
  RefWrite.resize(NumRefs);
  for (size_t R = 0; R != NumRefs; ++R) {
    const RecordedTrace::Ref &Rf = T.Refs[R];
    RefWrite[R] = Rf.IsWrite;
    if (Rf.GatherDim >= 0) {
      RefTable[R] = T.Tables[Rf.Table].data();
      RefOffsetDelta[R] = T.Deltas[Rf.DeltaIndex + Rf.GatherDim];
    }
  }
  PatternWrites.assign(T.Patterns.size(), 0);
  for (size_t P = 0; P != T.Patterns.size(); ++P)
    for (uint32_t R = T.Patterns[P].RefBegin; R != T.Patterns[P].RefEnd;
         ++R)
      PatternWrites[P] += T.Refs[R].IsWrite;
  // Counting sort of ref indices by array slot (CSR), so updateRemaps
  // touches exactly the refs of the slots that went dirty.
  const size_t NumArrays = T.program().arrays().size();
  SlotRefBegin.assign(NumArrays + 1, 0);
  for (const RecordedTrace::Ref &R : T.Refs)
    ++SlotRefBegin[R.ArrayId + 1];
  for (size_t Id = 0; Id != NumArrays; ++Id)
    SlotRefBegin[Id + 1] += SlotRefBegin[Id];
  SlotRefs.resize(NumRefs);
  std::vector<uint32_t> Fill(SlotRefBegin.begin(),
                             SlotRefBegin.end() - 1);
  for (uint32_t R = 0; R != NumRefs; ++R)
    SlotRefs[Fill[T.Refs[R].ArrayId]++] = R;
}

void TraceReplayer::updateRemaps(const layout::DataLayout &DL) {
  assert(&DL.program() == &T.program() &&
         "layout must belong to the recorded program");
  assert(DL.allBasesAssigned() && "layout must be complete");
  const unsigned N = DL.numArrays();
  Slots.resize(N);
  ++Remaps.Calls;
  for (unsigned Id = 0; Id != N; ++Id) {
    SlotRemap &S = Slots[Id];
    const layout::ArrayLayout &L = DL.layout(Id);
    S.Base = L.BaseAddr;
    // Padded byte strides: stride_0 = elemsize, stride_k = stride_{k-1}
    // * padded dim_{k-1}. When they match the cached remap, every
    // derived per-ref delta is still valid and only the base moved — the
    // common case across inter-padding candidates.
    const int64_t Elem = DL.program().array(Id).ElemSize;
    const size_t Rank = L.Dims.size();
    bool Same = S.Cached && S.StrideBytes.size() == Rank &&
                (Rank == 0 || S.StrideBytes[0] == Elem);
    int64_t Stride = Elem;
    for (size_t K = 0; Same && K != Rank; ++K) {
      if (S.StrideBytes[K] != Stride)
        Same = false;
      Stride *= L.Dims[K];
    }
    if (Same)
      continue;
    S.StrideBytes.resize(Rank);
    Stride = Elem;
    for (size_t K = 0; K != Rank; ++K) {
      S.StrideBytes[K] = Stride;
      Stride *= L.Dims[K];
    }
    // Rebuild exactly this slot's refs through the CSR index; refs of
    // slots that stayed clean keep their deltas untouched, so an
    // intra pad on one array costs that array's refs, not the table.
    // A gathered dimension steps through its table, not the address, so
    // it stays out of the byte delta and keeps its stride apart.
    ++Remaps.SlotRebuilds;
    for (uint32_t I = SlotRefBegin[Id]; I != SlotRefBegin[Id + 1];
         ++I) {
      const uint32_t R = SlotRefs[I];
      const RecordedTrace::Ref &Rf = T.Refs[R];
      int64_t Delta = 0;
      for (uint32_t K = 0; K != Rf.Rank; ++K)
        if (static_cast<int32_t>(K) != Rf.GatherDim)
          Delta += T.Deltas[Rf.DeltaIndex + K] * S.StrideBytes[K];
      RefDeltaBytes[R] = Delta;
      if (Rf.GatherDim >= 0)
        RefGatherStride[R] = S.StrideBytes[Rf.GatherDim];
      ++Remaps.RefDeltaRebuilds;
    }
    S.Cached = true;
  }
}

template <unsigned W, bool Gather, typename ProbeFn>
PADX_ALWAYS_INLINE void TraceReplayer::streamNarrow(ProbeFn &Probe,
                                                    uint32_t RefBegin,
                                                    uint64_t Count) {
  // Locals of a compile-time width: once the ref loop is unrolled, each
  // running address, delta and write bit lives in a register instead of
  // being reloaded after every store to the simulated set array.
  int64_t Addr[W], Delta[W], WriteBit[W];
  const int32_t *Table[W];
  int64_t Offset[W], OffsetDelta[W], GatherStride[W];
  for (unsigned R = 0; R != W; ++R) {
    Addr[R] = AddrScratch[R];
    Delta[R] = RefDeltaBytes[RefBegin + R];
    WriteBit[R] = RefWrite[RefBegin + R];
    if constexpr (Gather) {
      Table[R] = RefTable[RefBegin + R];
      Offset[R] = OffsetScratch[R];
      OffsetDelta[R] = RefOffsetDelta[RefBegin + R];
      GatherStride[R] = RefGatherStride[RefBegin + R];
    }
  }
  for (uint64_t It = 0; It != Count; ++It) {
#pragma GCC unroll 8
    for (unsigned R = 0; R != W; ++R) {
      int64_t A = Addr[R];
      if constexpr (Gather) {
        if (Table[R]) {
          A += Table[R][Offset[R]] * GatherStride[R];
          Offset[R] += OffsetDelta[R];
        }
      }
      Probe(A, RefBegin + R, WriteBit[R]);
      Addr[R] += Delta[R];
    }
  }
}

template <bool Gather, typename ProbeFn>
PADX_ALWAYS_INLINE void TraceReplayer::streamNarrowAny(ProbeFn &Probe,
                                                       uint32_t RefBegin,
                                                       uint32_t NumRefs,
                                                       uint64_t Count) {
  switch (NumRefs) {
  case 1:
    return streamNarrow<1, Gather>(Probe, RefBegin, Count);
  case 2:
    return streamNarrow<2, Gather>(Probe, RefBegin, Count);
  case 3:
    return streamNarrow<3, Gather>(Probe, RefBegin, Count);
  case 4:
    return streamNarrow<4, Gather>(Probe, RefBegin, Count);
  case 5:
    return streamNarrow<5, Gather>(Probe, RefBegin, Count);
  case 6:
    return streamNarrow<6, Gather>(Probe, RefBegin, Count);
  case 7:
    return streamNarrow<7, Gather>(Probe, RefBegin, Count);
  default:
    static_assert(kNarrowRefs == 8, "one case per narrow width");
    return streamNarrow<8, Gather>(Probe, RefBegin, Count);
  }
}

template <bool Gather, typename ProbeFn>
PADX_ALWAYS_INLINE void TraceReplayer::streamWide(ProbeFn &Probe,
                                                  uint32_t RefBegin,
                                                  uint32_t NumRefs,
                                                  uint64_t Count) {
  int64_t *Addr = AddrScratch.data();
  int64_t *Offset = OffsetScratch.data();
  const int64_t *Delta = RefDeltaBytes.data() + RefBegin;
  const uint8_t *Write = RefWrite.data() + RefBegin;
  const int32_t *const *Table = RefTable.data() + RefBegin;
  const int64_t *OffsetDelta = RefOffsetDelta.data() + RefBegin;
  const int64_t *GatherStride = RefGatherStride.data() + RefBegin;
  for (uint64_t It = 0; It != Count; ++It)
    for (uint32_t R = 0; R != NumRefs; ++R) {
      int64_t A = Addr[R];
      if constexpr (Gather) {
        if (Table[R]) {
          A += Table[R][Offset[R]] * GatherStride[R];
          Offset[R] += OffsetDelta[R];
        }
      }
      Probe(A, RefBegin + R, Write[R]);
      Addr[R] += Delta[R];
    }
}

// Inlined into its callers so the probe's hit and write-back counters
// stay locals of replayFirstLevel, in registers, rather than memory
// behind the closure that every set-array store might alias.
template <bool Narrow, typename ProbeFn, typename BlockFn>
PADX_ALWAYS_INLINE void TraceReplayer::replayImpl(ProbeFn &&Probe,
                                                  BlockFn &&PerBlock) {
  const int64_t *Starts = T.Starts.data();
  for (const RecordedTrace::Block &B : T.Blocks) {
    const RecordedTrace::Pattern &Pat = T.Patterns[B.PatternIndex];
    const uint32_t NumRefs = Pat.RefEnd - Pat.RefBegin;
    const int64_t *St = Starts + B.StartIndex;
    for (uint32_t R = 0; R != NumRefs; ++R) {
      const RecordedTrace::Ref &Rf = T.Refs[Pat.RefBegin + R];
      const SlotRemap &S = Slots[Rf.ArrayId];
      int64_t A = S.Base;
      for (uint32_t K = 0; K != Rf.Rank; ++K)
        A += St[K] * S.StrideBytes[K];
      if (Rf.GatherDim >= 0) {
        // The gathered dimension's start is a table offset: take it
        // back out of the address, and fold the dimension's lower bound
        // in, so an access adds just table[offset] * stride.
        const int64_t Off = St[Rf.GatherDim];
        A -= (Off + Rf.GatherLower) * S.StrideBytes[Rf.GatherDim];
        OffsetScratch[R] = Off;
      }
      AddrScratch[R] = A;
      St += Rf.Rank;
    }
    PerBlock(B.PatternIndex, B.Count);
    // Patterns without gathered refs never run the gather loops.
    if constexpr (Narrow) {
      if (NumRefs <= kNarrowRefs) {
        if (Pat.HasGather)
          streamNarrowAny<true>(Probe, Pat.RefBegin, NumRefs, B.Count);
        else
          streamNarrowAny<false>(Probe, Pat.RefBegin, NumRefs, B.Count);
        continue;
      }
    }
    if (Pat.HasGather)
      streamWide<true>(Probe, Pat.RefBegin, NumRefs, B.Count);
    else
      streamWide<false>(Probe, Pat.RefBegin, NumRefs, B.Count);
  }
}

bool TraceReplayer::maySpanLines(const sim::CacheSim &Sim) const {
  // Bases are element-aligned, so an element access can only straddle a
  // line boundary when its element is wider than a line.
  for (const RecordedTrace::Ref &R : T.Refs)
    if (R.ElemSize > Sim.config().LineBytes)
      return true;
  return false;
}

template <typename BeforeProbeFn, typename OnMissFn>
RunStatus TraceReplayer::replayFirstLevel(const layout::DataLayout &DL,
                                          sim::CacheSim &Sim,
                                          BeforeProbeFn &&BeforeProbe,
                                          OnMissFn &&OnMiss) {
  updateRemaps(DL);
  // Probe without per-access tallies; each block's access, read and
  // write counts are known up front from its pattern, and hits
  // accumulate in a register, so the statistics are settled in bulk
  // instead of through per-access memory traffic. A miss hands the
  // missed line, in bytes, to OnMiss.
  uint64_t Hits = 0;
  auto PerBlock = [&](uint32_t PatternIndex, uint64_t Count) {
    const RecordedTrace::Pattern &Pat = T.Patterns[PatternIndex];
    const uint64_t Writes = Count * PatternWrites[PatternIndex];
    const uint64_t Total = Count * (Pat.RefEnd - Pat.RefBegin);
    Sim.addAccessCounts(Total - Writes, Writes);
  };
  const unsigned LineShift = Sim.lineShiftLog2();
  if (Sim.isDirectMapped()) {
    // Direct-mapped (the paper's base configuration): inline the packed
    // probe with the geometry held in locals, so nothing is reloaded
    // across set-array stores, and stream narrow patterns through the
    // width-unrolled loop.
    int64_t *Lines = Sim.directLines();
    const int64_t SetMask = Sim.directSetMask();
    const unsigned SetShift = Sim.setShiftLog2();
    uint64_t WriteBacks = 0;
    replayImpl</*Narrow=*/true>(
        [&](int64_t Addr, uint32_t, int64_t WriteBit) PADX_INLINE_LAMBDA {
          BeforeProbe(Addr, WriteBit);
          const int64_t LineAddr = Addr >> LineShift;
          const int64_t Set = LineAddr & SetMask;
          const int64_t Key = ((LineAddr >> SetShift) << 2) | 1;
          const bool Hit = sim::CacheSim::probeDirectLane(
              Lines, Set, Key, WriteBit, WriteBacks);
          Hits += Hit;
          if (!Hit)
            OnMiss(LineAddr << LineShift, WriteBit);
        },
        PerBlock);
    Sim.addWriteBacks(WriteBacks);
  } else {
    replayImpl</*Narrow=*/false>(
        [&](int64_t Addr, uint32_t, int64_t WriteBit) PADX_INLINE_LAMBDA {
          BeforeProbe(Addr, WriteBit);
          const bool Hit = Sim.probeLine(Addr, WriteBit);
          Hits += Hit;
          if (!Hit)
            OnMiss((Addr >> LineShift) << LineShift, WriteBit);
        },
        PerBlock);
  }
  Sim.addMisses(T.numAccesses() - Hits);
  return T.recordStatus();
}

RunStatus TraceReplayer::replay(const layout::DataLayout &DL,
                                sim::CacheSim &Sim) {
  if (maySpanLines(Sim)) {
    CacheSimSink Sink(Sim);
    return replay(DL, Sink);
  }
  auto None = [](int64_t, int64_t) {};
  return replayFirstLevel(DL, Sim, None, None);
}

RunStatus TraceReplayer::replay(const layout::DataLayout &DL,
                                sim::CacheHierarchy &H) {
  // A lone cache level has nothing to forward to.
  if (H.numLevels() == 1)
    return replay(DL, H.sim(0));
  sim::CacheSim &L1 = H.sim(H.firstCacheLevel());
  // The probes assume an element access touches exactly one first-level
  // line (and, with a TLB, one page: pages are never shorter than cache
  // lines in a valid machine).
  if (maySpanLines(L1)) {
    HierarchySink Sink(H);
    return replay(DL, Sink);
  }
  const bool HasTlb = H.hasTlb();
  return replayFirstLevel(
      DL, L1,
      [&H, HasTlb](int64_t Addr, int64_t WriteBit) {
        if (HasTlb)
          H.probeTlbs(Addr, WriteBit);
      },
      [&H](int64_t LineAddr, int64_t WriteBit) {
        H.forwardMiss(LineAddr, WriteBit);
      });
}

RunStatus TraceReplayer::replay(const layout::DataLayout &DL,
                                TraceSink &Sink) {
  updateRemaps(DL);
  replayImpl</*Narrow=*/false>(
      [&](int64_t Addr, uint32_t RefIndex, int64_t) {
        const RecordedTrace::Ref &R = T.Refs[RefIndex];
        Sink.access(Addr, R.ElemSize, R.IsWrite);
      },
      [](uint32_t, uint64_t) {});
  return T.recordStatus();
}
