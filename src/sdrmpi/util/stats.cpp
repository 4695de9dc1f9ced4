#include "sdrmpi/util/stats.hpp"

#include <cstdio>

namespace sdrmpi::util {

double overhead_percent(double baseline, double measured) noexcept {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (measured - baseline) / baseline;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace sdrmpi::util
