// Measurement pieces of the threaded-runtime benchmark that hold no
// reference to a running cluster: the open-loop pacer, order statistics,
// the decoupled-TE alarm mirror and the per-layer ledger arithmetic.
// Header-only so the self-tests can use them. Latencies are recorded in ns
// into beehive::HistogramMetric (fixed-size atomic buckets, readable while
// hive threads record) and read back with quantile() below.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/messages.h"
#include "apps/te_common.h"
#include "instrument/histogram.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 < q <= 1) of `h` by nearest rank, interpolated
/// linearly inside the bucket that holds the rank. LatencyHistogram's own
/// percentile() returns the bucket midpoint, so a median would move in
/// steps of 3-6% of its value; this one moves continuously. 0 when empty.
inline double quantile(const beehive::LatencyHistogram& h, double q) {
  using beehive::LatencyHistogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(n)));
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t c = h.bucket_count(i);
    if (static_cast<double>(cum + c) < rank) {
      cum += c;
      continue;
    }
    const auto low = static_cast<double>(LatencyHistogram::bucket_low(i));
    const double width =
        i + 1 < LatencyHistogram::kBuckets
            ? static_cast<double>(LatencyHistogram::bucket_low(i + 1)) - low
            : 1.0;
    return low + (rank - static_cast<double>(cum) - 0.5) /
                     static_cast<double>(c) * width;
  }
  return static_cast<double>(h.max());
}

/// Open-loop schedule: event i is due at start + i / rate. Due times are
/// computed from the index, never accumulated, so rounding cannot drift.
class Pacer {
 public:
  Pacer(std::int64_t start_ns, double rate_per_s)
      : start_(start_ns), period_ns_(1e9 / rate_per_s) {}
  std::int64_t due(std::uint64_t i) const {
    return start_ + static_cast<std::int64_t>(
                        std::llround(static_cast<double>(i) * period_ns_));
  }
  /// How late event i went out when sent at `sent_ns` (0 when early).
  std::int64_t lateness(std::uint64_t i, std::int64_t sent_ns) const {
    return std::max<std::int64_t>(0, sent_ns - due(i));
  }

 private:
  std::int64_t start_;
  double period_ns_;
};

/// Median of a sample (empty -> 0). Takes a copy: callers keep order.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Generator-side mirror of TEDecoupledApp's Collect rule: a flow above
/// delta raises one alarm and is flagged; it re-arms only after falling
/// below delta * clear_fraction. Fed every reply in per-switch send order,
/// it predicts exactly how many FlowRateAlarms (hence FlowMods) the app
/// emits. Replies for a switch whose SwitchJoined was never sent are
/// ignored by the app, so the caller must mirror only joined switches.
class TeMirror {
 public:
  TeMirror(const beehive::TEConfig& config, std::size_t n_switches,
           std::size_t n_flows)
      : delta_(config.delta_kbps),
        clear_(config.delta_kbps * config.clear_fraction),
        n_flows_(n_flows),
        flagged_(n_switches * n_flows, 0) {}

  /// Applies one reply for switch index `sw_index` (0-based); appends the
  /// flows that alarm to `alarms` and returns how many did.
  std::size_t apply(std::size_t sw_index, const beehive::FlowStatReply& reply,
                    std::vector<std::uint32_t>* alarms = nullptr) {
    std::size_t n = 0;
    std::uint8_t* flags = &flagged_[sw_index * n_flows_];
    for (const beehive::FlowStat& stat : reply.stats) {
      if (stat.flow >= n_flows_) continue;
      if (stat.rate_kbps > delta_) {
        if (flags[stat.flow] == 0) {
          flags[stat.flow] = 1;
          ++n;
          if (alarms != nullptr) alarms->push_back(stat.flow);
        }
      } else if (stat.rate_kbps < clear_) {
        flags[stat.flow] = 0;
      }
    }
    return n;
  }

 private:
  double delta_;
  double clear_;
  std::size_t n_flows_;
  std::vector<std::uint8_t> flagged_;
};

/// One layer's share of an event: its measured cost in ns times how many
/// times one event passes through it.
struct LedgerTerm {
  const char* layer;
  double ns;
  double per_event;
};

/// Sum of the layers' self times per event, in ns.
inline double ledger_sum_ns(const std::vector<LedgerTerm>& terms) {
  double sum = 0.0;
  for (const LedgerTerm& t : terms) sum += t.ns * t.per_event;
  return sum;
}

/// The share of the measured CPU cost per event that no layer accounts
/// for, in percent: 100 * (1 - sum / cpu). Negative when the layers
/// over-explain the measured cost.
inline double unattributed_pct(double layer_sum_ns, double cpu_us_per_msg) {
  if (cpu_us_per_msg <= 0.0) return 0.0;
  return 100.0 * (1.0 - layer_sum_ns / (cpu_us_per_msg * 1000.0));
}

}  // namespace perfbench
