#pragma once
// Chrome trace-event span log: RAII spans recorded against a wall clock,
// serialized as trace-event JSON ("X" complete events) that chrome://tracing
// and Perfetto (ui.perfetto.dev) open directly.
//
// This file is inside src/p2pse/obs/, the ONE place the determinism linter
// (wallclock rule) permits steady_clock: span timing is host telemetry and
// must never feed simulation state or the `sim` stats section.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace p2pse::obs {

class TraceLog;

/// RAII span: records [construction, destruction) into the owning TraceLog.
/// Default-constructed spans are inert (no log, no clock reads), so call
/// sites can unconditionally create one and only pay when tracing is on.
class Span {
 public:
  Span() = default;
  Span(TraceLog* log, std::string name, int tid);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span();

 private:
  void finish();

  TraceLog* log_ = nullptr;
  std::string name_;
  int tid_ = 0;
  std::uint64_t start_us_ = 0;
};

/// Thread-safe span sink. Timestamps are microseconds since the log's
/// construction (its epoch), which keeps trace files small and stable in
/// shape across runs.
class TraceLog {
 public:
  TraceLog();

  /// Microseconds since this log's epoch.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Opens a span; `tid` groups rows in the viewer (0 = main, 1+ = replica
  /// worker lanes).
  [[nodiscard]] Span span(std::string name, int tid = 0) {
    return Span(this, std::move(name), tid);
  }

  void record(const std::string& name, int tid, std::uint64_t ts_us,
              std::uint64_t dur_us);

  /// Exclusive seconds per span name — the `host.phases_s` section of the
  /// run summary. Each span counts its duration minus the time covered by
  /// the spans nested inside it on the same `tid` lane (a replica's
  /// `simulate` excludes the `graph-build` it opens), summed over all
  /// spans with that name.
  [[nodiscard]] std::map<std::string, double> phase_totals() const;

  [[nodiscard]] std::size_t size() const;

  /// Writes the whole log as a Chrome trace-event JSON document.
  void write(std::ostream& out) const;

 private:
  struct Record {
    std::string name;
    int tid = 0;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
  };

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

}  // namespace p2pse::obs
