#include "p2pse/trace/trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace p2pse::trace {
namespace {

constexpr std::string_view kMagic = "# p2pse-trace v1";
constexpr std::string_view kHeader = "time,event,session";

[[noreturn]] void bad_trace(const std::string& what) {
  throw std::invalid_argument("ChurnTrace: " + what);
}

[[noreturn]] void bad_line(std::size_t line, const std::string& what) {
  bad_trace("line " + std::to_string(line) + ": " + what);
}

/// Full-precision double formatting so a written trace reloads bit-exact.
std::string exact(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

double parse_double(std::string_view text, std::size_t line,
                    std::string_view what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(std::string(text), &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    bad_line(line, std::string(what) + " is not a number: '" +
                       std::string(text) + "'");
  }
}

std::uint64_t parse_u64(std::string_view text, std::size_t line,
                        std::string_view what) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(std::string(text), &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    bad_line(line, std::string(what) + " is not a non-negative integer: '" +
                       std::string(text) + "'");
  }
}

/// Value of a `# key: value` metadata line, or nullopt on mismatch.
std::optional<std::string_view> metadata_value(std::string_view line,
                                               std::string_view key) {
  const std::string prefix = "# " + std::string(key) + ":";
  if (line.substr(0, prefix.size()) != prefix) return std::nullopt;
  std::string_view value = line.substr(prefix.size());
  while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
  return value;
}

}  // namespace

void ChurnTrace::validate() const {
  if (duration <= 0.0) bad_trace("duration must be > 0");
  double prev = -1.0;
  // Alive sessions: the initial range plus joined-but-not-left ids; closed
  // ids may never reappear (one session id = one join/leave pair).
  std::unordered_set<std::uint64_t> alive_joined;
  std::unordered_set<std::uint64_t> closed;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    // Describes the event only on failure: formatting every valid event
    // would dominate validating a generated trace.
    const auto fail = [&](std::string_view what) {
      bad_trace("event " + std::to_string(i) + " (t=" + exact(event.time) +
                ", session " + std::to_string(event.session) + "): " +
                std::string(what));
    };
    if (event.time < 0.0 || event.time > duration) {
      fail("time outside [0, duration]");
    }
    if (event.time == prev) {
      fail("duplicate timestamp (replay order would be ambiguous)");
    }
    if (event.time < prev) fail("timestamps not sorted");
    prev = event.time;
    const bool is_initial = event.session < initial_sessions;
    if (event.kind == TraceEvent::Kind::kJoin) {
      if (is_initial) fail("join of an initial session (alive at t=0)");
      if (closed.contains(event.session)) {
        fail("session id reused after its leave");
      }
      if (!alive_joined.insert(event.session).second) fail("duplicate join");
    } else {
      if (is_initial) {
        if (!closed.insert(event.session).second) fail("duplicate leave");
      } else if (alive_joined.erase(event.session) == 1) {
        closed.insert(event.session);
      } else {
        fail(closed.contains(event.session) ? "duplicate leave"
                                            : "leave before join");
      }
    }
  }
}

std::vector<std::pair<double, std::size_t>> ChurnTrace::size_trajectory()
    const {
  std::vector<std::pair<double, std::size_t>> trajectory;
  trajectory.reserve(events.size() + 1);
  std::size_t alive = static_cast<std::size_t>(initial_sessions);
  trajectory.emplace_back(0.0, alive);
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kJoin) {
      ++alive;
    } else {
      --alive;
    }
    trajectory.emplace_back(event.time, alive);
  }
  return trajectory;
}

TraceSummary ChurnTrace::summarize() const {
  TraceSummary summary;
  summary.duration = duration;
  summary.initial_sessions = static_cast<std::size_t>(initial_sessions);
  summary.min_alive = summary.max_alive = summary.final_alive =
      summary.initial_sessions;

  std::unordered_map<std::uint64_t, double> join_time;
  std::vector<double> lengths;
  std::size_t alive = summary.initial_sessions;
  double weighted_alive = 0.0;
  double prev_time = 0.0;
  for (const TraceEvent& event : events) {
    weighted_alive += static_cast<double>(alive) * (event.time - prev_time);
    prev_time = event.time;
    if (event.kind == TraceEvent::Kind::kJoin) {
      ++summary.joins;
      ++alive;
      join_time.emplace(event.session, event.time);
    } else {
      ++summary.leaves;
      --alive;
      const auto it = join_time.find(event.session);
      if (it != join_time.end()) {
        lengths.push_back(event.time - it->second);
        join_time.erase(it);
      }
    }
    summary.min_alive = std::min(summary.min_alive, alive);
    summary.max_alive = std::max(summary.max_alive, alive);
  }
  weighted_alive += static_cast<double>(alive) * (duration - prev_time);
  summary.final_alive = alive;
  summary.mean_alive = weighted_alive / duration;
  summary.events_per_unit =
      static_cast<double>(summary.joins + summary.leaves) / duration;
  summary.churn_rate = summary.mean_alive > 0.0
                           ? summary.events_per_unit / summary.mean_alive
                           : 0.0;
  summary.completed_sessions = lengths.size();
  if (!lengths.empty()) {
    double total = 0.0;
    for (const double length : lengths) total += length;
    summary.mean_session_length = total / static_cast<double>(lengths.size());
    std::sort(lengths.begin(), lengths.end());
    const std::size_t mid = lengths.size() / 2;
    summary.median_session_length =
        lengths.size() % 2 == 1 ? lengths[mid]
                                : 0.5 * (lengths[mid - 1] + lengths[mid]);
  }
  return summary;
}

void ChurnTrace::write_csv(std::ostream& out) const {
  out << kMagic << "\n";
  out << "# name: " << name << "\n";
  out << "# duration: " << exact(duration) << "\n";
  out << "# initial_sessions: " << initial_sessions << "\n";
  out << kHeader << "\n";
  for (const TraceEvent& event : events) {
    out << exact(event.time) << ','
        << (event.kind == TraceEvent::Kind::kJoin ? "join" : "leave") << ','
        << event.session << "\n";
  }
}

ChurnTrace ChurnTrace::read_csv(std::istream& in) {
  ChurnTrace trace;
  std::string line;
  std::size_t line_no = 0;
  const auto next_line = [&]() -> bool {
    if (!std::getline(in, line)) return false;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };

  if (!next_line() || line != kMagic) {
    bad_line(line_no, "expected magic line '" + std::string(kMagic) + "'");
  }
  if (!next_line()) bad_line(line_no, "missing '# name:' metadata");
  const auto name = metadata_value(line, "name");
  if (!name) bad_line(line_no, "expected '# name: ...'");
  trace.name = std::string(*name);
  if (!next_line()) bad_line(line_no, "missing '# duration:' metadata");
  const auto duration = metadata_value(line, "duration");
  if (!duration) bad_line(line_no, "expected '# duration: ...'");
  trace.duration = parse_double(*duration, line_no, "duration");
  if (!next_line()) bad_line(line_no, "missing '# initial_sessions:' metadata");
  const auto initial = metadata_value(line, "initial_sessions");
  if (!initial) bad_line(line_no, "expected '# initial_sessions: ...'");
  trace.initial_sessions = parse_u64(*initial, line_no, "initial_sessions");
  if (!next_line() || line != kHeader) {
    bad_line(line_no, "expected column header '" + std::string(kHeader) + "'");
  }

  while (next_line()) {
    if (line.empty()) continue;
    const std::string_view row = line;
    const std::size_t first = row.find(',');
    const std::size_t second =
        first == std::string_view::npos ? first : row.find(',', first + 1);
    if (second == std::string_view::npos ||
        row.find(',', second + 1) != std::string_view::npos) {
      bad_line(line_no, "expected exactly 3 fields (time,event,session)");
    }
    TraceEvent event;
    event.time = parse_double(row.substr(0, first), line_no, "time");
    const std::string_view kind = row.substr(first + 1, second - first - 1);
    if (kind == "join") {
      event.kind = TraceEvent::Kind::kJoin;
    } else if (kind == "leave") {
      event.kind = TraceEvent::Kind::kLeave;
    } else {
      bad_line(line_no,
               "event must be 'join' or 'leave', got '" + std::string(kind) +
                   "'");
    }
    event.session = parse_u64(row.substr(second + 1), line_no, "session");
    trace.events.push_back(event);
  }
  trace.validate();
  return trace;
}

void ChurnTrace::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("ChurnTrace: cannot open '" + path +
                             "' for writing");
  }
  write_csv(out);
  if (!out) {
    throw std::runtime_error("ChurnTrace: write to '" + path + "' failed");
  }
}

ChurnTrace ChurnTrace::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ChurnTrace: cannot open '" + path + "'");
  }
  try {
    return read_csv(in);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

}  // namespace p2pse::trace
