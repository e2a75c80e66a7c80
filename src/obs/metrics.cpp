#include "obs/metrics.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

namespace sst::obs {

namespace {

void write_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os << buf;
}

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

[[nodiscard]] std::string_view group_of(std::string_view name) {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? std::string_view{} : name.substr(0, dot);
}

[[nodiscard]] std::string_view key_of(std::string_view name) {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

}  // namespace

std::string json_escaped(std::string_view s) {
  std::ostringstream os;
  write_escaped(os, s);
  return os.str();
}

HistogramSnapshot HistogramSnapshot::from(const stats::LatencyHistogram& h) {
  HistogramSnapshot snap;
  snap.count = h.count();
  snap.mean_ms = h.mean_ms();
  snap.p50_ms = h.p50_ms();
  snap.p95_ms = h.p95_ms();
  snap.p99_ms = h.p99_ms();
  snap.p999_ms = h.p999_ms();
  snap.max_ms = h.max_ms();
  snap.buckets = h.nonzero_buckets();
  return snap;
}

void MetricsRegistry::counter(std::string_view name, std::uint64_t value) {
  Entry e;
  e.name = std::string(name);
  e.kind = Kind::kCounter;
  e.u64 = value;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::gauge(std::string_view name, double value) {
  Entry e;
  e.name = std::string(name);
  e.kind = Kind::kGauge;
  e.f64 = value;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::text(std::string_view name, std::string_view value) {
  Entry e;
  e.name = std::string(name);
  e.kind = Kind::kText;
  e.str = std::string(value);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::array(std::string_view name, std::vector<double> values) {
  Entry e;
  e.name = std::string(name);
  e.kind = Kind::kArray;
  e.arr = std::move(values);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::histogram(std::string_view name,
                                const stats::LatencyHistogram& h) {
  Entry e;
  e.name = std::string(name);
  e.kind = Kind::kHistogram;
  e.hist = HistogramSnapshot::from(h);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::write_value(std::ostream& os, const Entry& entry) const {
  switch (entry.kind) {
    case Kind::kCounter:
      os << entry.u64;
      break;
    case Kind::kGauge:
      write_double(os, entry.f64);
      break;
    case Kind::kText:
      os << '"';
      write_escaped(os, entry.str);
      os << '"';
      break;
    case Kind::kArray:
      os << '[';
      for (std::size_t i = 0; i < entry.arr.size(); ++i) {
        if (i != 0) os << ',';
        write_double(os, entry.arr[i]);
      }
      os << ']';
      break;
    case Kind::kHistogram: {
      const HistogramSnapshot& h = entry.hist;
      os << "{\"count\":" << h.count << ",\"mean_ms\":";
      write_double(os, h.mean_ms);
      os << ",\"p50_ms\":";
      write_double(os, h.p50_ms);
      os << ",\"p95_ms\":";
      write_double(os, h.p95_ms);
      os << ",\"p99_ms\":";
      write_double(os, h.p99_ms);
      os << ",\"p999_ms\":";
      write_double(os, h.p999_ms);
      os << ",\"max_ms\":";
      write_double(os, h.max_ms);
      os << ",\"buckets\":[";
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (i != 0) os << ',';
        os << "{\"lower_us\":";
        write_double(os, h.buckets[i].lower_ns / 1e3);
        os << ",\"upper_us\":";
        write_double(os, h.buckets[i].upper_ns / 1e3);
        os << ",\"count\":" << h.buckets[i].count << '}';
      }
      os << "]}";
      break;
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  // Group order = first-appearance order of each prefix; within a group,
  // registration order. Both are stable, so output is deterministic.
  std::vector<std::string_view> groups;
  for (const Entry& e : entries_) {
    const auto g = group_of(e.name);
    bool seen = false;
    for (const auto& existing : groups) {
      if (existing == g) {
        seen = true;
        break;
      }
    }
    if (!seen) groups.push_back(g);
  }

  os << "{";
  bool first_out = true;
  for (const auto& g : groups) {
    if (!first_out) os << ",";
    first_out = false;
    os << "\n";
    if (g.empty()) {
      // Top-level (dotless) entries, emitted inline.
      bool first_entry = true;
      for (const Entry& e : entries_) {
        if (!group_of(e.name).empty()) continue;
        if (!first_entry) os << ",\n";
        first_entry = false;
        os << "  \"";
        write_escaped(os, e.name);
        os << "\": ";
        write_value(os, e);
      }
    } else {
      os << "  \"";
      write_escaped(os, g);
      os << "\": {";
      bool first_entry = true;
      for (const Entry& e : entries_) {
        if (group_of(e.name) != g) continue;
        if (!first_entry) os << ",";
        first_entry = false;
        os << "\n    \"";
        write_escaped(os, key_of(e.name));
        os << "\": ";
        write_value(os, e);
      }
      os << "\n  }";
    }
  }
  os << "\n}\n";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace sst::obs
