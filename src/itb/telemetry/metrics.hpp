// Unified metrics registry.
//
// Every layer of the simulator keeps ad-hoc counter structs (net::NetworkStats,
// nic::NicStats, gm::GmStats, ip::IpStats) that benches read through accessors.
// The MetricRegistry gives them one namespace: a metric is identified by
// {component, name} plus optional {host, channel} labels, and is either
//   * an owned Counter/Gauge handle (cheap pointer-sized handles backed by
//     registry storage, for new instrumentation), or
//   * a source callback that polls an existing ad-hoc counter at snapshot
//     time — the integration style used across the stack, which keeps the
//     legacy accessors as the single source of truth (no double counting).
//
// Naming scheme: components are the module names ("net", "nic", "gm", "ip",
// "core"); metric names are lower_snake_case and match the legacy struct
// field where one exists (e.g. nic.itb_forwarded).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace itb::telemetry {

/// Optional dimensions of a metric. -1 means "not scoped by this label".
struct Labels {
  int host = -1;
  int channel = -1;

  friend bool operator==(Labels, Labels) = default;
};

enum class MetricKind : std::uint8_t {
  kCounter,  // monotonically increasing
  kGauge,    // instantaneous level
};

const char* to_string(MetricKind k);

/// "{host=3, channel=-1}": names one instance of a per-host/per-channel
/// metric in error messages.
std::string to_string(Labels l);

/// Hash of one metric key. The index hashes each field separately, so
/// ("a", "bc") and ("ab", "c") do not collide by construction, and host and
/// channel are not interchangeable.
std::size_t hash_key(std::string_view component, std::string_view name,
                     Labels labels) noexcept;

/// Handle to a registry-owned counter. Copyable, trivially cheap; a
/// default-constructed handle is inert (all operations no-ops).
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
    if (v_) *v_ += n;
  }
  std::uint64_t value() const { return v_ ? *v_ : 0; }

 private:
  friend class MetricRegistry;
  explicit Counter(std::uint64_t* v) : v_(v) {}
  std::uint64_t* v_ = nullptr;
};

/// Handle to a registry-owned gauge.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) {
    if (v_) *v_ = v;
  }
  void add(double d) {
    if (v_) *v_ += d;
  }
  double value() const { return v_ ? *v_ : 0.0; }

 private:
  friend class MetricRegistry;
  explicit Gauge(double* v) : v_(v) {}
  double* v_ = nullptr;
};

/// One row of a registry snapshot.
struct MetricSample {
  std::string component;
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

class MetricRegistry {
 public:
  using Source = std::function<double()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Create a registry-owned counter and return its handle.
  /// Throws std::invalid_argument if {component, name, labels} is taken.
  Counter counter(std::string component, std::string name, Labels labels = {});

  /// Create a registry-owned gauge and return its handle.
  Gauge gauge(std::string component, std::string name, Labels labels = {});

  /// Register a callback polled at snapshot time. This is how existing
  /// ad-hoc counters join the registry without being rewritten.
  void register_source(std::string component, std::string name,
                       MetricKind kind, Source source, Labels labels = {});

  /// Poll every metric. Rows appear in registration order.
  std::vector<MetricSample> snapshot() const;

  /// Current value of one metric; nullopt when not registered.
  std::optional<double> value(std::string_view component,
                              std::string_view name, Labels labels = {}) const;

  std::size_t size() const { return slots_.size(); }

 private:
  struct Key {
    std::string_view component;
    std::string_view name;
    Labels labels;
  };
  struct Slot {
    std::string component;
    std::string name;
    Labels labels;
    MetricKind kind;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    Source source;  // set => callback-backed

    double read() const;
  };

  static Key key(const Slot* s) { return {s->component, s->name, s->labels}; }
  static const Key& key(const Key& k) { return k; }

  // Transparent hash/equality: the index holds Slot pointers and is probed
  // with a string_view Key, so no key string is ever copied. The hash is
  // deliberately not noexcept: libstdc++ then stores each node's hash code,
  // so a rehash never re-reads the slots and a probe compares codes before
  // touching a slot's strings (the node still fits the allocator's minimum
  // chunk, so this costs no memory).
  struct KeyHash {
    using is_transparent = void;
    template <class T>
    std::size_t operator()(const T& t) const {
      const Key k = key(t);
      return hash_key(k.component, k.name, k.labels);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      const Key x = key(a), y = key(b);
      return x.labels == y.labels && x.name == y.name &&
             x.component == y.component;
    }
  };

  Slot& add_slot(std::string component, std::string name, MetricKind kind,
                 Labels labels);

  // deque: handles and the index keep pointers into slots, so addresses
  // must be stable; iteration order is registration order.
  std::deque<Slot> slots_;
  std::unordered_set<const Slot*, KeyHash, KeyEq> index_;
};

}  // namespace itb::telemetry
