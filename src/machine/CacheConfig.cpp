//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "machine/CacheConfig.h"

#include "support/MathExtras.h"

#include <sstream>

using namespace padx;

bool CacheConfig::isValid() const {
  if (!isPowerOf2(SizeBytes) || !isPowerOf2(LineBytes))
    return false;
  if (LineBytes > SizeBytes)
    return false;
  if (Associativity < 0)
    return false;
  if (Associativity > 0) {
    int64_t Ways = Associativity;
    if (!isPowerOf2(Ways))
      return false;
    // Ways * LineBytes can overflow; both are powers of two, so divide.
    if (Ways > SizeBytes / LineBytes)
      return false;
  }
  return true;
}

std::string CacheConfig::describe() const {
  std::ostringstream OS;
  if (SizeBytes % 1024 == 0)
    OS << SizeBytes / 1024 << "K";
  else
    OS << SizeBytes << "B";
  if (Associativity == 0)
    OS << " fully-associative";
  else if (Associativity == 1)
    OS << " direct-mapped";
  else
    OS << " " << Associativity << "-way";
  OS << ", " << LineBytes << "B lines";
  return OS.str();
}
