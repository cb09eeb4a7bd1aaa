// Exact demand arithmetic shared by the congestion estimator and the
// evaluation router.
//
// Every contribution to a demand map is rounded to a multiple of
// kDemandQuantum (2^-40). Sums of such values are exact IEEE-double
// integer arithmetic while a Gcell's demand stays below
// 2^53 * 2^-40 = 8192 track-equivalents, so addition is associative and
// subtraction cancels exactly: demand accumulated in any order, by any
// number of workers, or ripped and re-applied (+/-1.0 per track) is
// bit-identical. The estimator quantizes its L-shape span demand and the
// pin-penalty layer; the router quantizes its pin layer; I-shape and
// routed-path demand is +/-1.0 and already exact.
#pragma once

#include <cmath>

namespace puffer {

constexpr double kDemandQuantum = 1.0 / (1024.0 * 1024.0 * 1024.0 * 1024.0);
constexpr double kDemandScale = 1024.0 * 1024.0 * 1024.0 * 1024.0;

inline double quantize_demand(double v) {
  return std::round(v * kDemandScale) * kDemandQuantum;
}

}  // namespace puffer
