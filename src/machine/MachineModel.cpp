//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

using namespace padx;

MachineModel MachineModel::base16K() {
  return singleLevel(CacheConfig::base16K());
}

MachineModel MachineModel::paperL2() {
  MachineModel M;
  M.Levels.push_back(CacheLevel(CacheConfig{16 * 1024, 32, 1}, "l1", 1.0));
  M.Levels.push_back(CacheLevel(CacheConfig{64 * 1024, 64, 1}, "l2", 8.0));
  return M;
}

MachineModel MachineModel::skylake() {
  MachineModel M;
  M.Levels.push_back(CacheLevel(CacheConfig{32 * 1024, 64, 8}, "l1", 1.0));
  M.Levels.push_back(
      CacheLevel(CacheConfig{1024 * 1024, 64, 16}, "l2", 8.0));
  M.Levels.push_back(
      CacheLevel(CacheConfig{8 * 1024 * 1024, 64, 16}, "l3", 32.0));
  M.Levels.push_back(
      CacheLevel(CacheConfig{64 * 4096, 4096, 4}, "tlb", 16.0,
                 /*IsTlb=*/true));
  return M;
}

MachineModel MachineModel::a64fx() {
  MachineModel M;
  M.Levels.push_back(CacheLevel(CacheConfig{64 * 1024, 256, 4}, "l1", 1.0));
  M.Levels.push_back(
      CacheLevel(CacheConfig{8 * 1024 * 1024, 256, 16}, "l2", 8.0));
  return M;
}

const std::vector<std::string> &MachineModel::presetNames() {
  static const std::vector<std::string> Names = {"base16k", "paper-l2",
                                                 "skylake", "a64fx"};
  return Names;
}

namespace {

bool lookupPreset(std::string_view Name, MachineModel &Out) {
  if (Name == "base16k") {
    Out = MachineModel::base16K();
    return true;
  }
  if (Name == "paper-l2") {
    Out = MachineModel::paperL2();
    return true;
  }
  if (Name == "skylake") {
    Out = MachineModel::skylake();
    return true;
  }
  if (Name == "a64fx") {
    Out = MachineModel::a64fx();
    return true;
  }
  return false;
}

bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

/// Parses "32k", "1m", "4096", "2g" into bytes; plain integers when
/// \p AllowSuffix is false (TLB entry counts).
bool parseSize(std::string_view Text, int64_t &Out, bool AllowSuffix) {
  if (Text.empty())
    return false;
  int64_t Mult = 1;
  char Last = static_cast<char>(std::tolower(Text.back()));
  if (Last == 'k' || Last == 'm' || Last == 'g') {
    if (!AllowSuffix)
      return false;
    Mult = Last == 'k' ? 1024 : Last == 'm' ? 1024 * 1024 : 1 << 30;
    Text.remove_suffix(1);
  }
  if (Text.empty())
    return false;
  int64_t V = 0;
  for (char C : Text) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    V = V * 10 + (C - '0');
    if (V > (int64_t(1) << 40))
      return false;
  }
  Out = V * Mult;
  return Out > 0;
}

bool parseAssoc(std::string_view Text, int &Out) {
  if (Text == "fa" || Text == "0") {
    Out = 0;
    return true;
  }
  int64_t V = 0;
  if (!parseSize(Text, V, /*AllowSuffix=*/false) || V > 1024)
    return false;
  Out = static_cast<int>(V);
  return true;
}

std::vector<std::string_view> splitOn(std::string_view Text, char Sep) {
  std::vector<std::string_view> Parts;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t End = Text.find(Sep, Start);
    if (End == std::string_view::npos)
      End = Text.size();
    Parts.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Parts;
}

double defaultWeight(unsigned CacheIndex, bool IsTlb) {
  if (IsTlb)
    return 16.0;
  static const double Weights[] = {1.0, 8.0, 32.0, 64.0};
  return Weights[CacheIndex < 4 ? CacheIndex : 3];
}

} // namespace

bool MachineModel::parse(std::string_view Text, MachineModel &Out,
                         std::string *Error) {
  if (Text.empty())
    return fail(Error, "empty machine spec");
  MachineModel M;
  if (lookupPreset(Text, M)) {
    Out = std::move(M);
    return true;
  }
  unsigned CacheIndex = 0;
  for (std::string_view Part : splitOn(Text, ',')) {
    size_t Colon = Part.find(':');
    if (Colon == std::string_view::npos || Colon == 0)
      return fail(Error, "level '" + std::string(Part) +
                             "' is not name:size/line/assoc (and '" +
                             std::string(Text) +
                             "' names no preset)");
    std::string Name(Part.substr(0, Colon));
    bool IsTlb = Name.rfind("tlb", 0) == 0;
    std::vector<std::string_view> Fields =
        splitOn(Part.substr(Colon + 1), '/');
    if (Fields.size() != 3)
      return fail(Error, "level '" + Name +
                             "' needs exactly size/line/assoc");
    int64_t First = 0, Line = 0;
    int Assoc = 0;
    // TLB levels read entries/pagesize/ways: 64 entries of 4K pages is
    // tlb:64/4k/4, i.e. a 256K "cache" with 4K lines.
    if (!parseSize(Fields[0], First, /*AllowSuffix=*/!IsTlb))
      return fail(Error, "level '" + Name + "': bad " +
                             (IsTlb ? "entry count '" : "size '") +
                             std::string(Fields[0]) + "'");
    if (!parseSize(Fields[1], Line, /*AllowSuffix=*/true))
      return fail(Error, "level '" + Name + "': bad line size '" +
                             std::string(Fields[1]) + "'");
    if (!parseAssoc(Fields[2], Assoc))
      return fail(Error, "level '" + Name + "': bad associativity '" +
                             std::string(Fields[2]) + "'");
    CacheConfig G;
    G.SizeBytes = IsTlb ? First * Line : First;
    G.LineBytes = Line;
    G.Associativity = Assoc;
    M.Levels.push_back(CacheLevel(
        G, Name, defaultWeight(CacheIndex, IsTlb), IsTlb));
    if (!IsTlb)
      ++CacheIndex;
  }
  std::string Why;
  if (!M.isValid(&Why))
    return fail(Error, Why);
  Out = std::move(M);
  return true;
}

bool MachineModel::applyWeights(std::string_view Text,
                                std::string *Error) {
  if (Text.empty())
    return true;
  for (std::string_view Part : splitOn(Text, ',')) {
    size_t Eq = Part.find('=');
    if (Eq == std::string_view::npos || Eq == 0 ||
        Eq + 1 >= Part.size())
      return fail(Error, "weight '" + std::string(Part) +
                             "' is not name=value");
    std::string Name(Part.substr(0, Eq));
    std::string Value(Part.substr(Eq + 1));
    char *End = nullptr;
    double W = std::strtod(Value.c_str(), &End);
    if (End != Value.c_str() + Value.size() || !std::isfinite(W) ||
        W < 0)
      return fail(Error, "weight '" + Name + "': bad value '" + Value +
                             "'");
    bool Found = false;
    for (unsigned I = 0; I < numLevels(); ++I) {
      if (levelName(I) == Name) {
        Levels[I].Weight = W;
        Found = true;
      }
    }
    if (!Found)
      return fail(Error, "weight names unknown level '" + Name + "'");
  }
  return true;
}

bool MachineModel::resolveFlags(std::string_view MachineSpec,
                                std::string_view WeightsSpec,
                                const CacheConfig &Fallback,
                                MachineModel &Out, std::string *Error) {
  MachineModel M;
  if (!MachineSpec.empty() && !parse(MachineSpec, M, Error))
    return false;
  if (!WeightsSpec.empty()) {
    if (M.Levels.empty())
      M = singleLevel(Fallback);
    if (!M.applyWeights(WeightsSpec, Error))
      return false;
  }
  Out = std::move(M);
  return true;
}

bool MachineModel::isValid(std::string *Why) const {
  auto Bad = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };
  if (Levels.empty())
    return Bad("machine has no levels");
  if (Levels.size() > kMaxLevels)
    return Bad("machine has more than " + std::to_string(kMaxLevels) +
               " levels");
  unsigned Tlbs = 0, Caches = 0;
  const CacheLevel *PrevCache = nullptr;
  for (unsigned I = 0; I < Levels.size(); ++I) {
    const CacheLevel &L = Levels[I];
    std::string Name = levelName(I);
    if (!L.Geometry.isValid())
      return Bad("level " + Name + " has invalid geometry (" +
                 L.Geometry.describe() + ")");
    if (!std::isfinite(L.Weight) || L.Weight < 0)
      return Bad("level " + Name + " has invalid weight");
    if (L.IsTlb) {
      ++Tlbs;
      // The replay fast path probes one page per element access, which
      // is only right when pages are at least as long as every cache
      // line (true of any real machine).
      for (const CacheLevel &C : Levels)
        if (!C.IsTlb && C.Geometry.LineBytes > L.Geometry.LineBytes)
          return Bad("level " + Name +
                     " has pages shorter than a cache line");
      continue;
    }
    ++Caches;
    if (PrevCache) {
      if (L.Geometry.SizeBytes < PrevCache->Geometry.SizeBytes)
        return Bad("cache level " + Name +
                   " is smaller than the level above it");
      if (L.Geometry.LineBytes < PrevCache->Geometry.LineBytes)
        return Bad("cache level " + Name +
                   " has a shorter line than the level above it");
    }
    PrevCache = &L;
  }
  if (Caches == 0)
    return Bad("machine has no cache level (only TLBs)");
  if (Tlbs > 1)
    return Bad("machine has more than one TLB level");
  return true;
}

std::string MachineModel::levelName(unsigned I) const {
  if (!Levels[I].Name.empty())
    return Levels[I].Name;
  if (Levels[I].IsTlb)
    return "tlb";
  unsigned CacheIndex = 0;
  for (unsigned J = 0; J < I; ++J)
    if (!Levels[J].IsTlb)
      ++CacheIndex;
  return "l" + std::to_string(CacheIndex + 1);
}

unsigned MachineModel::firstCacheLevel() const {
  for (unsigned I = 0; I != numLevels(); ++I)
    if (!Levels[I].IsTlb)
      return I;
  return 0;
}

std::string MachineModel::describe() const {
  std::ostringstream OS;
  for (unsigned I = 0; I < numLevels(); ++I) {
    if (I)
      OS << " | ";
    OS << levelName(I) << " " << Levels[I].Geometry.describe();
  }
  return OS.str();
}

std::string MachineModel::spec() const {
  std::ostringstream OS;
  for (unsigned I = 0; I < numLevels(); ++I) {
    const CacheLevel &L = Levels[I];
    if (I)
      OS << ",";
    OS << levelName(I) << ":";
    auto Size = [&OS](int64_t Bytes) {
      if (Bytes % (1024 * 1024) == 0)
        OS << Bytes / (1024 * 1024) << "m";
      else if (Bytes % 1024 == 0)
        OS << Bytes / 1024 << "k";
      else
        OS << Bytes;
    };
    if (L.IsTlb)
      OS << L.Geometry.SizeBytes / L.Geometry.LineBytes;
    else
      Size(L.Geometry.SizeBytes);
    OS << "/";
    Size(L.Geometry.LineBytes);
    OS << "/" << L.Geometry.Associativity;
  }
  return OS.str();
}

uint64_t MachineModel::fingerprint() const {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  for (const CacheLevel &L : Levels) {
    Mix(static_cast<uint64_t>(L.Geometry.SizeBytes));
    Mix(static_cast<uint64_t>(L.Geometry.LineBytes));
    Mix(static_cast<uint64_t>(L.Geometry.Associativity));
    Mix(L.IsTlb ? 0x7467ULL : 0x6c76ULL);
  }
  return H;
}
