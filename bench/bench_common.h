// Timing-spread helpers for the custom-main benches that write BENCH_*.json
// records: every timed configuration reports the median, min and max over
// its repetitions, and every record names the host's core count.

#ifndef BVQ_BENCH_BENCH_COMMON_H_
#define BVQ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace bvq_bench {

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

// Median (mean of the middle two for an even count), min and max of a
// non-empty sample.
inline Spread SpreadOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  const double median =
      xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
  return {median, xs.front(), xs.back()};
}

// `{"median": .., "min": .., "max": ..}` in milliseconds.
inline std::string SpreadJson(const Spread& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.4f, \"min\": %.4f, \"max\": %.4f}", s.median,
                s.min, s.max);
  return buf;
}

inline unsigned HostCores() { return std::thread::hardware_concurrency(); }

}  // namespace bvq_bench

#endif  // BVQ_BENCH_BENCH_COMMON_H_
