//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// padlint — source-anchored conflict-miss linting for PadLang programs.
/// Runs the rule catalog of src/lint (the paper's pad conditions as
/// independent diagnostics) over one or more files and reports ranked,
/// fix-it-carrying findings as caret diagnostics, JSON, or SARIF 2.1.0
/// for CI ingestion.
///
/// Usage:
///   padlint [options] <file.pad>...
/// Options:
///   --cache BYTES        cache size in bytes (default 16384)
///   --line BYTES         line size in bytes (default 32)
///   --assoc K            associativity, 1 = direct mapped (default 1)
///   --machine M          multi-level machine: a preset (base16k,
///                        paper-l2, skylake, a64fx) or a spec like
///                        l1:32k/64/8,l2:1m/64/16; every set-mapped
///                        level is linted, findings first surfacing at
///                        an outer level are tagged [rule@l2]
///   --weights W          per-level objective weights, e.g. l1=1,l2=8
///   --format FMT         text | json | sarif (default text)
///   --output FILE        write the report to FILE instead of stdout
///   --baseline FILE      suppress findings recorded in FILE
///   --write-baseline FILE  record current findings and exit clean
///   --fail-on SEV        info | warning | error | never: lowest
///                        severity that fails the run (default warning)
///   --stats              print per-rule timings and analysis-cache
///                        counters to stderr (aggregated over all files,
///                        kept off stdout so reports stay parseable)
///   --stats-json FILE    write the aggregated pipeline stats as JSON
///                        to FILE ('-' = stdout)
///   --list-rules         print the rule catalog and exit
///
/// Exit codes (the CI contract, also checked by tests/ci.sh):
///   0  no findings at or above --fail-on (after baseline suppression)
///   1  findings at or above --fail-on
///   2  usage error, unreadable input, or parse/validation failure
///   3  internal error
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "layout/DataLayout.h"
#include "lint/Baseline.h"
#include "lint/Linter.h"
#include "lint/Output.h"
#include "lint/Rule.h"
#include "pipeline/PadPipeline.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

using namespace padx;

namespace {

enum ExitCode {
  ExitClean = 0,
  ExitFindings = 1, ///< Findings at or above --fail-on survived.
  ExitUsage = 2,    ///< Bad flags, unreadable file, parse failure.
  ExitInternal = 3, ///< A lint pass threw; indicates a padlint bug.
};

void usage() {
  std::fprintf(
      stderr,
      "usage: padlint [--cache BYTES] [--line BYTES] [--assoc K]\n"
      "               [--machine PRESET|SPEC] [--weights l1=1,...]\n"
      "               [--format text|json|sarif] [--output FILE]\n"
      "               [--baseline FILE] [--write-baseline FILE]\n"
      "               [--fail-on info|warning|error|never]\n"
      "               [--stats] [--stats-json FILE]\n"
      "               [--list-rules] <file.pad>...\n"
      "exit codes: 0 clean, 1 findings, 2 usage/input error, "
      "3 internal error\n");
}

/// One linted input, kept alive together: the program owns what the
/// layout and findings point into.
struct LintedFile {
  std::string Filename;
  std::string Source;
  std::unique_ptr<ir::Program> Program;
  std::unique_ptr<layout::DataLayout> Layout;
  lint::LintResult Result;
};

} // namespace

int main(int argc, char **argv) {
  CacheConfig Cache = CacheConfig::base16K();
  std::string MachineSpec, WeightsSpec;
  MachineModel Machine;
  std::string Format = "text";
  std::string OutputFile, BaselineFile, WriteBaselineFile;
  std::string FailOn = "warning";
  bool Stats = false;
  std::string StatsJsonFile;
  std::vector<std::string> Files;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage();
        std::exit(ExitUsage);
      }
      return argv[++I];
    };
    if (Arg == "--cache") {
      Cache.SizeBytes = std::atoll(Next());
    } else if (Arg == "--line") {
      Cache.LineBytes = std::atoll(Next());
    } else if (Arg == "--assoc") {
      Cache.Associativity = std::atoi(Next());
    } else if (Arg == "--machine") {
      MachineSpec = Next();
    } else if (Arg == "--weights") {
      WeightsSpec = Next();
    } else if (Arg == "--format") {
      Format = Next();
      if (Format != "text" && Format != "json" && Format != "sarif") {
        std::fprintf(stderr, "error: unknown format '%s'\n",
                     Format.c_str());
        return ExitUsage;
      }
    } else if (Arg == "--output") {
      OutputFile = Next();
    } else if (Arg == "--baseline") {
      BaselineFile = Next();
    } else if (Arg == "--write-baseline") {
      WriteBaselineFile = Next();
    } else if (Arg == "--fail-on") {
      FailOn = Next();
      if (FailOn != "info" && FailOn != "warning" && FailOn != "error" &&
          FailOn != "never") {
        std::fprintf(stderr, "error: --fail-on takes info, warning, "
                             "error or never\n");
        return ExitUsage;
      }
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--stats-json") {
      StatsJsonFile = Next();
    } else if (Arg == "--list-rules") {
      for (const lint::Rule *R : lint::allRules())
        std::printf("%-26s %s\n    paper: %s\n",
                    std::string(R->id()).c_str(),
                    std::string(R->summary()).c_str(),
                    std::string(R->paperCondition()).c_str());
      return ExitClean;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return ExitClean;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return ExitUsage;
    } else {
      Files.push_back(Arg);
    }
  }

  if (!Cache.isValid()) {
    std::fprintf(stderr, "error: invalid cache geometry (--cache/--line "
                         "powers of two, --assoc a power of two that "
                         "fits)\n");
    return ExitUsage;
  }
  {
    std::string MachineErr;
    if (!MachineModel::resolveFlags(MachineSpec, WeightsSpec, Cache,
                                    Machine, &MachineErr)) {
      std::fprintf(stderr, "error: %s\n", MachineErr.c_str());
      return ExitUsage;
    }
    if (!Machine.Levels.empty())
      Cache = Machine.firstCache();
  }
  if (Files.empty()) {
    usage();
    return ExitUsage;
  }

  // Load the baseline up front; a missing or malformed file is a usage
  // error, not a silent empty suppression set.
  lint::Baseline Baseline;
  if (!BaselineFile.empty()) {
    std::ifstream In(BaselineFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot open baseline '%s'\n",
                   BaselineFile.c_str());
      return ExitUsage;
    }
    std::vector<std::string> Errors;
    Baseline = lint::Baseline::parse(In, &Errors);
    for (const std::string &E : Errors)
      std::fprintf(stderr, "warning: %s: %s\n", BaselineFile.c_str(),
                   E.c_str());
  }

  bool AnyInputError = false;
  std::vector<LintedFile> Linted;
  lint::LintOptions LintOpts;
  LintOpts.Cache = Cache;
  LintOpts.Machine = Machine; // Empty = single level from Cache.
  lint::Linter Linter(LintOpts);
  // One pipeline per file (a manager is bound to one program); the
  // snapshots merge so --stats aggregates over the whole invocation.
  pipeline::PipelineStats MergedStats;

  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      AnyInputError = true;
      continue;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    LintedFile LF;
    LF.Filename = File;
    LF.Source = Buf.str();

    DiagnosticEngine Diags;
    std::optional<ir::Program> P =
        frontend::parseProgram(LF.Source, Diags);
    if (!P) {
      std::fprintf(stderr, "%s",
                   Diags.render(LF.Source, File).c_str());
      AnyInputError = true;
      continue;
    }
    LF.Program = std::make_unique<ir::Program>(std::move(*P));

    try {
      LF.Layout = std::make_unique<layout::DataLayout>(
          layout::originalLayout(*LF.Program));
      pipeline::PadPipeline PP(*LF.Program);
      LF.Result = Linter.run(*LF.Layout, PP);
      MergedStats.merge(PP.stats());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "internal error: %s: %s\n", File.c_str(),
                   E.what());
      return ExitInternal;
    } catch (...) {
      std::fprintf(stderr, "internal error: %s: unknown exception\n",
                   File.c_str());
      return ExitInternal;
    }
    Baseline.apply(LF.Result, LF.Program->name());
    Linted.push_back(std::move(LF));
  }

  // Record a new baseline before rendering: adopting padlint on a noisy
  // tree is "padlint --write-baseline lint.baseline src/*.pad".
  if (!WriteBaselineFile.empty()) {
    std::ofstream Out(WriteBaselineFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write baseline '%s'\n",
                   WriteBaselineFile.c_str());
      return ExitUsage;
    }
    Out << "# padlint baseline v1\n";
    for (const LintedFile &LF : Linted)
      for (const lint::Finding &F : LF.Result.Findings)
        if (!F.Suppressed)
          Out << lint::Baseline::fingerprint(F, LF.Program->name())
              << '\n';
  }

  std::ofstream OutFile;
  std::ostream *OS = &std::cout;
  if (!OutputFile.empty()) {
    OutFile.open(OutputFile);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   OutputFile.c_str());
      return ExitUsage;
    }
    OS = &OutFile;
  }

  if (Format == "text") {
    for (const LintedFile &LF : Linted)
      *OS << lint::renderText(LF.Result, *LF.Layout, LF.Source,
                              LF.Filename);
  } else if (Format == "json") {
    // One JSON array over all inputs, one object per file.
    *OS << "[\n";
    for (size_t I = 0; I != Linted.size(); ++I) {
      if (I != 0)
        *OS << ",\n";
      lint::writeJson(*OS, Linted[I].Result, *Linted[I].Layout, Cache,
                      Linted[I].Filename);
    }
    *OS << "]\n";
  } else {
    std::vector<lint::SarifFileResult> Runs;
    for (const LintedFile &LF : Linted)
      Runs.push_back({LF.Filename, LF.Program->name(), &LF.Result,
                      LF.Layout.get()});
    lint::writeSarif(*OS, Runs);
  }

  if (Stats)
    MergedStats.printText(std::cerr);
  if (!StatsJsonFile.empty()) {
    if (StatsJsonFile == "-") {
      MergedStats.writeJson(std::cout);
    } else {
      std::ofstream StatsOut(StatsJsonFile);
      if (!StatsOut) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     StatsJsonFile.c_str());
        return ExitUsage;
      }
      MergedStats.writeJson(StatsOut);
    }
  }

  if (AnyInputError)
    return ExitUsage;
  // Recording a baseline is an adoption step, not a gate: exit clean so
  // "--write-baseline && commit the file" works in one CI run.
  if (!WriteBaselineFile.empty() || FailOn == "never")
    return ExitClean;
  lint::Severity Threshold = FailOn == "info" ? lint::Severity::Info
                             : FailOn == "error"
                                 ? lint::Severity::Error
                                 : lint::Severity::Warning;
  for (const LintedFile &LF : Linted)
    for (const lint::Finding &F : LF.Result.Findings)
      if (!F.Suppressed && F.Sev >= Threshold)
        return ExitFindings;
  return ExitClean;
}
