#include "p2pse/obs/trace_log.hpp"

#include <algorithm>
#include <tuple>

#include "p2pse/obs/stats_writer.hpp"

namespace p2pse::obs {

Span::Span(TraceLog* log, std::string name, int tid)
    : log_(log), name_(std::move(name)), tid_(tid) {
  if (log_ != nullptr) start_us_ = log_->now_us();
}

Span::Span(Span&& other) noexcept
    : log_(other.log_), name_(std::move(other.name_)), tid_(other.tid_),
      start_us_(other.start_us_) {
  other.log_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    log_ = other.log_;
    name_ = std::move(other.name_);
    tid_ = other.tid_;
    start_us_ = other.start_us_;
    other.log_ = nullptr;
  }
  return *this;
}

Span::~Span() { finish(); }

void Span::finish() {
  if (log_ == nullptr) return;
  const std::uint64_t end_us = log_->now_us();
  log_->record(name_, tid_, start_us_,
               end_us > start_us_ ? end_us - start_us_ : 0);
  log_ = nullptr;
}

TraceLog::TraceLog() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceLog::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

void TraceLog::record(const std::string& name, int tid, std::uint64_t ts_us,
                      std::uint64_t dur_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(Record{name, tid, ts_us, dur_us});
}

std::map<std::string, double> TraceLog::phase_totals() const {
  std::vector<Record> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans = records_;
  }
  // Per lane, in start order with the longer span first on a tie, so every
  // span comes after the spans that enclose it. A span's self time is its
  // duration minus the union of its direct children: concurrent spans on
  // one lane (the sim-shard-* workers) may overlap, and time two children
  // share is taken out once.
  std::sort(spans.begin(), spans.end(), [](const Record& a, const Record& b) {
    return std::tie(a.tid, a.ts_us, b.dur_us) <
           std::tie(b.tid, b.ts_us, a.dur_us);
  });
  struct Open {
    std::size_t index;
    std::uint64_t end_us;
    std::uint64_t covered_until_us;  // children's union so far ends here
  };
  std::vector<std::uint64_t> self_us(spans.size());
  std::vector<Open> open;  // the enclosing chain, innermost last
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& span = spans[i];
    const std::uint64_t end_us = span.ts_us + span.dur_us;
    while (!open.empty() && (spans[open.back().index].tid != span.tid ||
                             end_us > open.back().end_us)) {
      open.pop_back();
    }
    if (!open.empty()) {
      Open& parent = open.back();
      const std::uint64_t from = std::max(span.ts_us, parent.covered_until_us);
      if (end_us > from) self_us[parent.index] -= end_us - from;
      parent.covered_until_us = std::max(parent.covered_until_us, end_us);
    }
    self_us[i] = span.dur_us;
    open.push_back(Open{i, end_us, span.ts_us});
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name] += static_cast<double>(self_us[i]) / 1e6;
  }
  return totals;
}

std::size_t TraceLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void TraceLog::write(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& record : records_) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(record.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << record.tid
        << ",\"ts\":" << record.ts_us << ",\"dur\":" << record.dur_us << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace p2pse::obs
