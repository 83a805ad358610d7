//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Arith.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>

using namespace padx::perfbench;

double padx::perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double padx::perfbench::mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) /
         static_cast<double>(V.size());
}

TailChoice padx::perfbench::tailPercentile(std::vector<double> V,
                                           size_t MinBeyond) {
  TailChoice T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  T.Rank = N > MinBeyond ? N - MinBeyond : 1;
  T.Beyond = N - T.Rank;
  T.Percentile = 100.0 * static_cast<double>(T.Rank) /
                 static_cast<double>(N);
  T.Value = V[T.Rank - 1];
  return T;
}

std::vector<double>
padx::perfbench::groupMinimum(const std::vector<double> &V,
                              const std::vector<unsigned> &Group) {
  std::vector<double> Min;
  for (size_t I = 0; I != V.size(); ++I) {
    if (Group[I] >= Min.size())
      Min.resize(Group[I] + 1, std::numeric_limits<double>::infinity());
    Min[Group[I]] = std::min(Min[Group[I]], V[I]);
  }
  std::vector<double> Out(V.size());
  for (size_t I = 0; I != V.size(); ++I)
    Out[I] = Min[Group[I]];
  return Out;
}

double padx::perfbench::geomean(const std::vector<double> &Ratios) {
  if (Ratios.empty())
    return 0;
  double LogSum = 0;
  for (double R : Ratios) {
    if (!(R > 0))
      return 0;
    LogSum += std::log(R);
  }
  return std::exp(LogSum / static_cast<double>(Ratios.size()));
}

std::vector<double>
padx::perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].duration();
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.duration();
  return Self;
}

int SpanRecorder::open(const char *Name, uint32_t Op) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Start = nowSeconds();
  Spans.push_back(S);
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::close(int Index) {
  if (Index < 0)
    return;
  Spans[static_cast<size_t>(Index)].End = nowSeconds();
  // Spans close in LIFO order under ScopedSpan; tolerate a stray close
  // by unwinding to the closed span.
  while (!Open.empty()) {
    int Top = Open.back();
    Open.pop_back();
    if (Top == Index)
      break;
  }
}

double padx::perfbench::nowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double padx::perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

double padx::perfbench::peakRssMiB() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would
  // also carry the parent's footprint from before execve.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  return 0;
}

uint64_t padx::perfbench::fnv1a(std::string_view Data, uint64_t Hash) {
  for (unsigned char C : Data) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<int64_t>(next() % Span);
}

bool Rng::chance(double P) {
  return static_cast<double>(next() >> 11) * 0x1.0p-53 < P;
}
