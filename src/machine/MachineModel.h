//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target machine as an ordered list of cache levels, innermost
/// first. The paper evaluates padding against a single level; its §7
/// generalization — check the pad condition against every level — needs
/// a first-class hierarchy description, which is what MachineModel is.
/// A level is a CacheConfig plus a name ("l1", "l2", ...), an objective
/// weight for the search's weighted multi-level cost, and an IsTlb flag
/// marking translation caches (the "line" is then the page size, and
/// the level is probed on every access rather than chained behind the
/// level above it).
///
/// MachineModels come from three places: `singleLevel()` wraps the old
/// single-geometry API (bit-identical behavior is guaranteed by routing
/// one-level machines through the pre-refactor code paths), named
/// presets (`base16k`, `paper-l2`, `skylake`, `a64fx`), and the spec
/// grammar accepted by every tool's `--machine` flag:
///
///   l1:32k/64/8,l2:1m/64/16,tlb:64/4k/4
///
/// where each level is name:size/line/assoc; size takes k/m/g suffixes;
/// assoc is a way count, `0` or `fa` for fully associative; and a level
/// whose name starts with "tlb" reads entries/pagesize/ways instead.
/// Objective weights default per position (1, 8, 32 for cache levels;
/// 16 for a TLB) and can be overridden with `--weights l1=1,l2=8`.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_MACHINE_MACHINEMODEL_H
#define PADX_MACHINE_MACHINEMODEL_H

#include "machine/CacheConfig.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace padx {

/// One level of the machine: a geometry plus hierarchy metadata.
struct CacheLevel {
  CacheConfig Geometry;
  /// Display / weight-spec name; empty means "use the positional
  /// default" (l1, l2, l3 for cache levels, tlb for a TLB).
  std::string Name;
  /// Translation cache: Geometry.LineBytes is the page size and
  /// Geometry.SizeBytes covers entries * page size. TLB levels are
  /// probed on every access, in parallel with the cache chain.
  bool IsTlb = false;
  /// Relative cost of one miss at this level in the search's weighted
  /// objective. A one-level machine always carries weight 1 so the
  /// weighted cost degenerates to the plain miss count bit-identically.
  double Weight = 1.0;

  CacheLevel() = default;
  CacheLevel(CacheConfig G) : Geometry(G) {}
  CacheLevel(CacheConfig G, std::string Name, double Weight,
             bool IsTlb = false)
      : Geometry(G), Name(std::move(Name)), IsTlb(IsTlb),
        Weight(Weight) {}

  bool operator==(const CacheLevel &RHS) const = default;
};

/// A machine is a list of cache levels, innermost first. The paper notes
/// the heuristics generalize to multilevel caches by checking the pad
/// condition against every level; MachineModel is what the multi-level
/// driver, hierarchy simulator, per-level predictor, and weighted search
/// consume.
struct MachineModel {
  std::vector<CacheLevel> Levels;

  /// More levels than any real pad target needs; keeps fixed-size
  /// per-level arrays (CostSample) cheap.
  static constexpr unsigned kMaxLevels = 4;

  static MachineModel singleLevel(CacheConfig Config) {
    MachineModel M;
    M.Levels.push_back(CacheLevel(Config, "l1", 1.0));
    return M;
  }

  /// \name Named presets.
  /// @{
  /// The paper's base machine: one 16K direct-mapped level, 32B lines.
  static MachineModel base16K();
  /// The paper machine plus a 64K direct-mapped L2 with 64B lines —
  /// small enough that L1-only pads visibly regress L2.
  static MachineModel paperL2();
  /// Skylake-like: 32K/64/8 L1, 1M/64/16 L2, 8M/64/16 L3, 64-entry
  /// 4-way TLB over 4K pages.
  static MachineModel skylake();
  /// A64FX-like: 64K/256/4 L1, 8M/256/16 L2 (256B lines).
  static MachineModel a64fx();
  static const std::vector<std::string> &presetNames();
  /// @}

  /// Parses a preset name or a spec string (see file comment). Returns
  /// false and fills \p Error (when non-null) on malformed input.
  static bool parse(std::string_view Text, MachineModel &Out,
                    std::string *Error = nullptr);

  /// Applies a weight override string "l1=1,l2=8" against the named
  /// levels of this machine. Unknown level names are errors.
  bool applyWeights(std::string_view Text, std::string *Error = nullptr);

  /// Resolves the tools' --machine/--weights flag pair (and the
  /// protocol's machine/weights fields) against the legacy
  /// --cache/--line/--assoc geometry \p Fallback. Both empty leaves
  /// \p Out with no levels — the caller's signal to take the
  /// pre-hierarchy single-geometry paths. A weights override without a
  /// machine applies to the single level built from \p Fallback.
  static bool resolveFlags(std::string_view MachineSpec,
                           std::string_view WeightsSpec,
                           const CacheConfig &Fallback, MachineModel &Out,
                           std::string *Error = nullptr);

  /// Structural validity: 1..kMaxLevels levels, every geometry valid, at
  /// least one non-TLB level, at most one TLB, cache capacities and line
  /// sizes non-decreasing outward, weights finite and non-negative.
  bool isValid(std::string *Why = nullptr) const;

  /// True for the degenerate hierarchy the old single-geometry API maps
  /// to; such machines take the pre-refactor code paths bit-identically.
  bool isSingleLevel() const {
    return Levels.size() == 1 && !Levels[0].IsTlb;
  }

  unsigned numLevels() const {
    return static_cast<unsigned>(Levels.size());
  }

  /// Effective display name of level \p I (positional default when the
  /// level is unnamed).
  std::string levelName(unsigned I) const;

  /// Index of the innermost non-TLB level, and its geometry. Require
  /// isValid().
  unsigned firstCacheLevel() const;
  const CacheConfig &firstCache() const {
    return Levels[firstCacheLevel()].Geometry;
  }

  /// "l1 32K 8-way, 64B lines | l2 1M 16-way, 64B lines" for headers.
  std::string describe() const;

  /// Geometry spec string in the grammar parse() accepts; weights are
  /// not part of the grammar and travel separately via applyWeights.
  std::string spec() const;

  /// Stable 64-bit FNV-1a over level geometries and TLB flags, for
  /// keying memoized per-machine analyses. Names and weights do not
  /// participate: predictions depend only on geometry.
  uint64_t fingerprint() const;

  bool operator==(const MachineModel &RHS) const = default;
};

} // namespace padx

#endif // PADX_MACHINE_MACHINEMODEL_H
