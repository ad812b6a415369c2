#include "itb/telemetry/metrics.hpp"

#include <cstdint>
#include <functional>
#include <stdexcept>

namespace itb::telemetry {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
  }
  return "?";
}

std::string to_string(Labels l) {
  return "{host=" + std::to_string(l.host) +
         ", channel=" + std::to_string(l.channel) + "}";
}

namespace {

// splitmix64 finaliser: spreads a combined word over all 64 bits.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t hash_key(std::string_view component, std::string_view name,
                     Labels labels) noexcept {
  const std::hash<std::string_view> h;
  const std::uint64_t lab =
      (std::uint64_t{static_cast<std::uint32_t>(labels.host)} << 32) |
      static_cast<std::uint32_t>(labels.channel);
  return mix(mix(mix(h(component)) ^ h(name)) ^ lab);
}

double MetricRegistry::Slot::read() const {
  if (source) return source();
  return kind == MetricKind::kCounter ? static_cast<double>(counter_value)
                                      : gauge_value;
}

MetricRegistry::Slot& MetricRegistry::add_slot(std::string component,
                                               std::string name,
                                               MetricKind kind, Labels labels) {
  auto& slot = slots_.emplace_back(Slot{std::move(component), std::move(name),
                                        labels, kind, 0, 0.0, nullptr});
  if (!index_.insert(&slot).second) {
    const std::string what = "metric already registered: " + slot.component +
                             "." + slot.name + " " + to_string(labels);
    slots_.pop_back();
    throw std::invalid_argument(what);
  }
  return slot;
}

Counter MetricRegistry::counter(std::string component, std::string name,
                                Labels labels) {
  auto& slot =
      add_slot(std::move(component), std::move(name), MetricKind::kCounter,
               labels);
  return Counter(&slot.counter_value);
}

Gauge MetricRegistry::gauge(std::string component, std::string name,
                            Labels labels) {
  auto& slot = add_slot(std::move(component), std::move(name),
                        MetricKind::kGauge, labels);
  return Gauge(&slot.gauge_value);
}

void MetricRegistry::register_source(std::string component, std::string name,
                                     MetricKind kind, Source source,
                                     Labels labels) {
  if (!source) throw std::invalid_argument("metric source must be callable");
  auto& slot = add_slot(std::move(component), std::move(name), kind, labels);
  slot.source = std::move(source);
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_)
    out.push_back(MetricSample{s.component, s.name, s.labels, s.kind, s.read()});
  return out;
}

std::optional<double> MetricRegistry::value(std::string_view component,
                                            std::string_view name,
                                            Labels labels) const {
  const auto it = index_.find(Key{component, name, labels});
  if (it == index_.end()) return std::nullopt;
  return (*it)->read();
}

}  // namespace itb::telemetry
