#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace sst {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

Result<std::pair<double, std::string_view>> split_number_suffix(std::string_view text) {
  text = trim(text);
  if (text.empty()) return make_error("empty value");
  std::size_t pos = 0;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
          text[pos] == '-' || text[pos] == '+')) {
    ++pos;
  }
  if (pos == 0) return make_error("value does not start with a number: '" + std::string(text) + "'");
  double number = 0.0;
  const std::string digits(text.substr(0, pos));
  char* end = nullptr;
  number = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0') {
    return make_error("malformed number: '" + digits + "'");
  }
  return std::make_pair(number, trim(text.substr(pos)));
}

}  // namespace

Result<Config> Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      return make_error("expected key=value, got '" + arg + "'");
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

Result<Config> Config::from_text(std::string_view text) {
  Config cfg;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    std::string_view line =
        text.substr(start, nl == std::string_view::npos ? std::string_view::npos : nl - start);
    start = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return make_error("expected key=value, got '" + std::string(line) + "'");
    }
    cfg.set(std::string(trim(line.substr(0, eq))), std::string(trim(line.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_.insert_or_assign(std::move(key), std::move(value));
}

bool Config::contains(std::string_view key) const { return entries_.find(key) != entries_.end(); }

std::string Config::get_string(std::string_view key, std::string fallback) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? fallback : it->second;
}

template <typename T, typename Parse>
T ConfigReader::get(std::string_view key, T fallback, Parse parse) {
  const auto it = cfg_.entries().find(key);
  if (it == cfg_.entries().end()) return fallback;
  const Result<T> parsed = parse(it->second);
  if (parsed.ok()) return parsed.value();
  if (status_.ok()) {
    status_ = make_error(std::string(key) + "=" + it->second + ": " + parsed.error().message);
  }
  return fallback;
}

std::int64_t ConfigReader::get_int(std::string_view key, std::int64_t fallback) {
  return get(key, fallback, [](const std::string& text) -> Result<std::int64_t> {
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      return make_error("not an integer");
    }
    return value;
  });
}

double ConfigReader::get_double(std::string_view key, double fallback) {
  return get(key, fallback, [](const std::string& text) -> Result<double> {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) return make_error("not a number");
    return value;
  });
}

bool ConfigReader::get_bool(std::string_view key, bool fallback) {
  return get(key, fallback, Config::parse_bool);
}

Bytes ConfigReader::get_bytes(std::string_view key, Bytes fallback) {
  return get(key, fallback, Config::parse_bytes);
}

SimTime ConfigReader::get_duration(std::string_view key, SimTime fallback) {
  return get(key, fallback, Config::parse_duration);
}

Result<Bytes> Config::parse_bytes(std::string_view text) {
  auto split = split_number_suffix(text);
  if (!split.ok()) return split.error();
  auto [number, suffix] = split.value();
  if (number < 0) return make_error("negative size: '" + std::string(text) + "'");
  double multiplier = 1.0;
  std::string s(suffix);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (s.empty() || s == "B") multiplier = 1.0;
  else if (s == "K" || s == "KB" || s == "KIB") multiplier = static_cast<double>(KiB);
  else if (s == "M" || s == "MB" || s == "MIB") multiplier = static_cast<double>(MiB);
  else if (s == "G" || s == "GB" || s == "GIB") multiplier = static_cast<double>(GiB);
  else return make_error("unknown size suffix: '" + std::string(suffix) + "'");
  return static_cast<Bytes>(number * multiplier + 0.5);
}

Result<SimTime> Config::parse_duration(std::string_view text) {
  auto split = split_number_suffix(text);
  if (!split.ok()) return split.error();
  auto [number, suffix] = split.value();
  if (number < 0) return make_error("negative duration: '" + std::string(text) + "'");
  double multiplier = 1.0;  // bare numbers are nanoseconds
  if (suffix.empty() || suffix == "ns") multiplier = 1.0;
  else if (suffix == "us") multiplier = 1e3;
  else if (suffix == "ms") multiplier = 1e6;
  else if (suffix == "s") multiplier = 1e9;
  else return make_error("unknown duration suffix: '" + std::string(suffix) + "'");
  return static_cast<SimTime>(number * multiplier + 0.5);
}

Result<bool> Config::parse_bool(std::string_view text) {
  std::string s(trim(text));
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return make_error("not a boolean: '" + std::string(text) + "'");
}

}  // namespace sst
