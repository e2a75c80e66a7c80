// Tiny key=value configuration store. Experiments and examples accept
// "key=value" pairs on the command line (mirroring DiskSim's parameter-file
// style) and read values through ConfigReader's typed getters, which
// support size suffixes (K/M/G, powers of two) and time suffixes
// (ns/us/ms/s) and report malformed values instead of ignoring them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace sst {

class Config {
 public:
  Config() = default;

  /// Parse a list of "key=value" tokens (e.g. argv tail). Unknown formats
  /// produce an error naming the offending token.
  static Result<Config> from_args(const std::vector<std::string>& args);

  /// Parse newline-separated "key=value" text; '#' starts a comment.
  static Result<Config> from_text(std::string_view text);

  void set(std::string key, std::string value);
  [[nodiscard]] bool contains(std::string_view key) const;

  [[nodiscard]] std::string get_string(std::string_view key, std::string fallback) const;

  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

  /// Standalone parsers, reused by ConfigReader and directly by tests.
  static Result<Bytes> parse_bytes(std::string_view text);
  static Result<SimTime> parse_duration(std::string_view text);
  static Result<bool> parse_bool(std::string_view text);

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

/// Typed reads of a Config. Each getter returns the key's value, or the
/// fallback when the key is missing. A present value that does not parse
/// also yields the fallback, and the first one is kept as status(): an
/// error naming the key and the value. A loader reads all its keys, then
/// fails once.
class ConfigReader {
 public:
  explicit ConfigReader(const Config& cfg) : cfg_(cfg) {}

  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t fallback);
  [[nodiscard]] double get_double(std::string_view key, double fallback);
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback);
  /// Accepts raw bytes or suffixed sizes: "64K", "8M", "1G" (binary units).
  [[nodiscard]] Bytes get_bytes(std::string_view key, Bytes fallback);
  /// Accepts "500us", "10ms", "2s", or raw nanoseconds.
  [[nodiscard]] SimTime get_duration(std::string_view key, SimTime fallback);

  /// OK, or the first malformed value read so far.
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  template <typename T, typename Parse>
  T get(std::string_view key, T fallback, Parse parse);

  const Config& cfg_;
  Status status_;
};

}  // namespace sst
