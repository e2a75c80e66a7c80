// Unified metrics export: a registry of named counters, gauges, arrays and
// histogram snapshots that serializes to one deterministic JSON document.
//
// Names are dot-namespaced ("scheduler.rotations", "disk.seek_time_ms");
// write_json groups entries by the prefix before the first dot so the
// output reads as one object per subsystem. Insertion order is preserved —
// the same registrations always produce the same bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.hpp"

namespace sst::obs {

/// `s` escaped for the inside of a JSON string literal (quotes, backslashes
/// and control characters).
[[nodiscard]] std::string json_escaped(std::string_view s);

/// A latency histogram frozen for export: headline quantiles plus the
/// non-empty buckets (whose counts sum to `count`).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  std::vector<stats::HistogramBucket> buckets;

  [[nodiscard]] static HistogramSnapshot from(const stats::LatencyHistogram& h);
};

class MetricsRegistry {
 public:
  void counter(std::string_view name, std::uint64_t value);
  void gauge(std::string_view name, double value);
  void text(std::string_view name, std::string_view value);
  void array(std::string_view name, std::vector<double> values);
  void histogram(std::string_view name, const stats::LatencyHistogram& h);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// {"group":{"key":value,...},...} — entries grouped by the name prefix
  /// before the first dot; dotless names become top-level keys.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kText, kArray, kHistogram };

  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t u64 = 0;
    double f64 = 0.0;
    std::string str;
    std::vector<double> arr;
    HistogramSnapshot hist;
  };

  void write_value(std::ostream& os, const Entry& entry) const;

  std::vector<Entry> entries_;
};

}  // namespace sst::obs
