// Counter field lists. Every exported stats struct names its members once,
// in a static `fields(visitor, structs...)` template next to its
// definition, e.g. `v.sum("commands", s.commands...);`. Each call passes
// the exported key (the exporter prefixes the group) and that member of
// every struct being walked in lockstep. The kinds:
//   sum      counter, summed when cells merge
//   peak     high-water mark, max-merged
//   time     SimTime, summed; exported as the "<key>_ms" gauge
//   buckets  std::array histogram, summed bucket-wise; exported as an array
//   ratio    derived gauge (a member function's value); export only
// accumulate() below and the exporter in experiment/metrics_export.cpp are
// the two visitors, so merging and exporting read the same list.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>
#include <type_traits>

namespace sst {

namespace detail {

struct AccumulateVisitor {
  template <typename T>
  void sum(std::string_view, T& into, const T& from) { into += from; }
  template <typename T>
  void peak(std::string_view, T& into, const T& from) { into = std::max(into, from); }
  template <typename T>
  void time(std::string_view, T& into, const T& from) { into += from; }
  template <typename T, std::size_t N>
  void buckets(std::string_view, std::array<T, N>& into, const std::array<T, N>& from) {
    for (std::size_t i = 0; i < N; ++i) into[i] += from[i];
  }
  void ratio(std::string_view, double, double) {}
};

}  // namespace detail

/// Fold `from` into `into` along S's field list. `into` may be a type
/// derived from S (a summary that extends the per-device stats).
template <typename S>
void accumulate(std::type_identity_t<S>& into, const S& from) {
  detail::AccumulateVisitor visitor;
  S::fields(visitor, into, from);
}

}  // namespace sst
