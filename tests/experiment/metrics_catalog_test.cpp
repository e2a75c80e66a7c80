// Metrics catalog schema test: the key list of ExperimentResult::to_json(),
// with every conditional group switched on, must equal the README's
// "Metrics reference" table row for row, in document order. Adding,
// renaming or reordering an exported key without documenting it (or
// documenting a key the export never writes) fails here. The synthetic
// result also reaches the raid, uring, reactor and shard groups, which the
// golden parity fixtures never do.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.hpp"

namespace sst::experiment {
namespace {

/// A result with every optional metrics group enabled and a few counters
/// set to recognisable values.
ExperimentResult all_groups_result() {
  ExperimentResult r;
  r.stream_mbps = {1.0, 2.0};
  r.latency.add(msec(2));
  r.breakdown.enabled = true;
  r.breakdown.net_response.add(usec(300));
  r.slo_report.enabled = true;
  r.shard_summary.shards = 2;
  r.shard_summary.requested = 2;
  r.uring_summary.enabled = true;
  r.uring_summary.errors = 3;
  r.uring_summary.backlog_peak = 11;
  r.uring_summary.per_device_completed = {5, 7};
  r.reactor_summary.enabled = true;
  r.reactor_summary.reactors = 2;
  r.raid_kind = io::RaidSpec::Kind::kMirror;
  r.mirror_stats.failovers = 13;
  r.net_fault_stats.dropped = 17;
  r.disk_totals.seek_time = msec(19);
  r.retry_stats.backoff_time = msec(23);
  return r;
}

/// Flattened "group.key" names of a MetricsRegistry document, in order.
/// The writer puts each top-level name on its own two-space-indented line
/// (a group opens with a bare '{') and each group member on a
/// four-space-indented line, so a line scan recovers the key list.
std::vector<std::string> exported_keys(const std::string& json) {
  std::vector<std::string> keys;
  std::string group;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    const auto quoted = [&line](std::size_t at) {
      return line.substr(at + 1, line.find('"', at + 1) - at - 1);
    };
    if (line.rfind("    \"", 0) == 0) {
      keys.push_back(group + "." + quoted(4));
    } else if (line.rfind("  \"", 0) == 0) {
      const std::string name = quoted(2);
      if (!line.empty() && line.back() == '{') {
        group = name;
      } else {
        keys.push_back(name);
      }
    }
  }
  return keys;
}

/// First backticked cell of every table row under README's
/// "## Metrics reference" heading.
std::vector<std::string> documented_keys() {
  std::ifstream file(std::string(SST_SOURCE_DIR) + "/README.md");
  EXPECT_TRUE(file.good()) << "README.md not found";
  std::vector<std::string> keys;
  bool in_section = false;
  for (std::string line; std::getline(file, line);) {
    if (line.rfind("## ", 0) == 0) {
      if (in_section) break;
      in_section = line == "## Metrics reference";
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    keys.push_back(line.substr(3, line.find('`', 3) - 3));
  }
  return keys;
}

TEST(MetricsCatalog, ReadmeTableListsEveryExportedKeyInOrder) {
  const std::vector<std::string> exported = exported_keys(all_groups_result().to_json());
  const std::vector<std::string> documented = documented_keys();
  ASSERT_FALSE(documented.empty()) << "no Metrics reference table in README.md";
  const std::size_t n = std::max(exported.size(), documented.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string e = i < exported.size() ? exported[i] : "<none>";
    const std::string d = i < documented.size() ? documented[i] : "<none>";
    ASSERT_EQ(e, d) << "row " << i << ": export vs README";
  }
}

TEST(MetricsCatalog, RenamedKeysCarryTheirMembers) {
  const std::string json = all_groups_result().to_json();
  for (const char* expected :
       {"\"errors\": 3", "\"backlog_peak\": 11", "\"device_completed\": [5,7]",
        "\"count\": 2", "\"failovers\": 13", "\"dropped_requests\": 17",
        "\"seek_time_ms\": 19", "\"backoff_time_ms\": 23", "\"shard_count\": 2"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected;
  }
}

}  // namespace
}  // namespace sst::experiment
