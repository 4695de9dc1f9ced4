// Small numeric helpers for benchmark reports.
#pragma once

#include <string>

namespace sdrmpi::util {

/// Relative overhead in percent: 100 * (measured - baseline) / baseline.
[[nodiscard]] double overhead_percent(double baseline, double measured) noexcept;

/// Formats a double with the given precision (benchmark table output).
[[nodiscard]] std::string format_double(double v, int precision = 2);

}  // namespace sdrmpi::util
