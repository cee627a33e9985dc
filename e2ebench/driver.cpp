// e2e_driver — one repeat of one benchmark workload, end to end.
//
// Drives an estimator x workload x size combination through the same public
// calls harness::run_matrix makes (scenario::workload_by_name, a
// ScenarioRunner fanned out with harness::ParallelReplicaRunner::map), with
// thin forwarding wrappers at every layer boundary:
//
//   * the scenario::GraphFactory around net::build_heterogeneous_random,
//   * a scenario::Dynamics whose bind() and cursor advance_to() are timed,
//   * an est::Estimator whose clone() returns a wrapped clone and whose
//     estimate_point / start_epoch / run_round / epoch_estimate are timed.
//
// Untraced (--trace 0), the wrappers record only the time of the first
// estimator call (for setup_s) and the meter total after each call. Traced
// (--trace 1), they also record one span per call (name, start, end,
// replica) in per-replica memory, and the counters at each call boundary;
// the spans are written to --spans when the run ends.
//
// The last line of stdout is one JSON object describing the repeat; the
// Python runner (run.py) aggregates repeats into the benchmark's metrics.
//
//   e2e_driver --estimator sample_collide:l=200,T=10 --scenario static
//              --nodes 1000000 --replicas 1 --threads 1 --estimations 10
//              --seed 7 --trace 1 --spans spans.json
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "p2pse/est/registry.hpp"
#include "p2pse/harness/parallel_runner.hpp"
#include "p2pse/harness/report.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/obs/metrics.hpp"
#include "p2pse/obs/rusage.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/obs/telemetry.hpp"
#include "p2pse/scenario/runner.hpp"
#include "p2pse/scenario/scenarios.hpp"
#include "p2pse/support/args.hpp"
#include "p2pse/topo/topology.hpp"
#include "p2pse/trace/workloads.hpp"

namespace {

using namespace p2pse;
using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, the closest the program gets to
/// process start.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since_start() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

constexpr std::size_t kClasses = obs::kNumMessageClasses;

/// Replica index of the calling thread; -1 on the coordinating thread
/// outside the fan-out.
thread_local int tl_replica = -1;

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int replica = -1;
};

/// What one replica's wrappers saw. Each slot is written only by the thread
/// running that replica and read after the fan-out has joined.
struct ReplicaLog {
  std::vector<SpanRecord> spans;
  std::vector<double> call_ms;  ///< estimate_point / run_round durations
  std::uint64_t calls = 0;      ///< estimate_point / run_round calls
  double factory_end = 0.0;
  double collect_s = 0.0;
  std::uint64_t meter_total = 0;
  std::array<std::uint64_t, kClasses> messages{};
  std::uint64_t bytes = 0;
  sim::Channel::Counters channel{};
  net::Graph::Counters graph{};
  std::optional<obs::SimCounters> collected;
  net::Graph::Counters built{};  ///< the builder's own joins
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t arena_slots = 0;
  std::size_t node_slots = 0;
};

class Recorder {
 public:
  Recorder(bool tracing, std::size_t replicas, std::uint64_t final_call,
           bool collect_on_final)
      : tracing_(tracing),
        final_call_(final_call),
        collect_on_final_(collect_on_final),
        logs_(replicas) {}

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

  /// Start time of an estimator call (0 when untraced); marks the first
  /// call of the run either way.
  double enter() {
    std::call_once(first_call_once_,
                   [this] { first_call_ = seconds_since_start(); });
    return tracing_ ? seconds_since_start() : 0.0;
  }

  /// Closes an estimator call. `sample` marks the calls whose durations
  /// feed the percentiles (estimate_point, run_round).
  void leave(const sim::Simulator& sim, const char* name, double start,
             bool sample) {
    ReplicaLog& log = current();
    log.meter_total = sim.meter().total();
    if (sample) ++log.calls;
    if (!tracing_) return;
    const double end = seconds_since_start();
    log.spans.push_back({name, start, end, tl_replica});
    if (sample) log.call_ms.push_back((end - start) * 1e3);
    for (std::size_t c = 0; c < kClasses; ++c) {
      log.messages[c] = sim.meter().of(static_cast<sim::MessageClass>(c));
    }
    log.bytes = sim.meter().total_bytes();
    log.channel = sim.channel().counters();
    log.graph = sim.graph().counters();
    if (sample && collect_on_final_ && log.calls == final_call_) {
      const double collect_start = seconds_since_start();
      log.collected = obs::collect(sim);
      const double collect_end = seconds_since_start();
      log.collect_s = collect_end - collect_start;
      log.spans.push_back(
          {"obs.collect", collect_start, collect_end, tl_replica});
    }
  }

  void span(const char* name, double start, double end) {
    if (!tracing_) return;
    if (tl_replica < 0) {
      main_spans_.push_back({name, start, end, -1});
    } else {
      current().spans.push_back({name, start, end, tl_replica});
    }
  }

  void graph_built(const net::Graph& graph, double start) {
    ReplicaLog& log = current();
    log.nodes = graph.size();
    log.edges = graph.edge_count();
    log.arena_slots = graph.arena_size();
    log.node_slots = graph.slot_count();
    log.built = graph.counters();
    if (!tracing_) return;
    log.factory_end = seconds_since_start();
    span("net.build", start, log.factory_end);
  }

  [[nodiscard]] ReplicaLog& current() {
    return logs_.at(static_cast<std::size_t>(tl_replica));
  }

  [[nodiscard]] double first_call() const noexcept { return first_call_; }
  [[nodiscard]] const std::vector<ReplicaLog>& logs() const noexcept {
    return logs_;
  }
  [[nodiscard]] const std::vector<SpanRecord>& main_spans() const noexcept {
    return main_spans_;
  }

 private:
  const bool tracing_;
  const std::uint64_t final_call_;
  const bool collect_on_final_;
  std::once_flag first_call_once_;
  double first_call_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<ReplicaLog> logs_;
  std::vector<SpanRecord> main_spans_;
};

class TimedEstimator final : public est::Estimator {
 public:
  TimedEstimator(std::unique_ptr<est::Estimator> inner, Recorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::string_view short_name() const noexcept override {
    return inner_->short_name();
  }
  [[nodiscard]] std::string_view display_name() const noexcept override {
    return inner_->display_name();
  }
  [[nodiscard]] Mode mode() const noexcept override { return inner_->mode(); }
  [[nodiscard]] std::unique_ptr<est::Estimator> clone() const override {
    return std::make_unique<TimedEstimator>(inner_->clone(), recorder_);
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] bool uses_channel() const noexcept override {
    return inner_->uses_channel();
  }

  [[nodiscard]] est::Estimate estimate_point(
      sim::Simulator& sim, net::NodeId initiator,
      support::RngStream& rng) override {
    const double start = recorder_.enter();
    const est::Estimate e = inner_->estimate_point(sim, initiator, rng);
    recorder_.leave(sim, "est.estimate_point", start, /*sample=*/true);
    return e;
  }
  [[nodiscard]] double last_coverage() const noexcept override {
    return inner_->last_coverage();
  }

  void start_epoch(sim::Simulator& sim, net::NodeId initiator,
                   support::RngStream& rng) override {
    const double start = recorder_.enter();
    inner_->start_epoch(sim, initiator, rng);
    recorder_.leave(sim, "est.start_epoch", start, /*sample=*/false);
  }
  void run_round(sim::Simulator& sim, support::RngStream& rng) override {
    const double start = recorder_.enter();
    inner_->run_round(sim, rng);
    recorder_.leave(sim, "est.run_round", start, /*sample=*/true);
  }
  [[nodiscard]] est::Estimate epoch_estimate(
      const sim::Simulator& sim, net::NodeId reader) const override {
    const double start = recorder_.enter();
    const est::Estimate e = inner_->epoch_estimate(sim, reader);
    recorder_.leave(sim, "est.epoch_estimate", start, /*sample=*/false);
    return e;
  }
  [[nodiscard]] std::uint32_t rounds_per_epoch() const noexcept override {
    return inner_->rounds_per_epoch();
  }

 private:
  std::unique_ptr<est::Estimator> inner_;
  Recorder& recorder_;
};

class TimedCursor final : public scenario::DynamicsCursor {
 public:
  TimedCursor(std::unique_ptr<scenario::DynamicsCursor> inner,
              Recorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  void advance_to(double t) override {
    if (!recorder_.tracing()) {
      inner_->advance_to(t);
      return;
    }
    const double start = seconds_since_start();
    inner_->advance_to(t);
    recorder_.span("scenario.advance_to", start, seconds_since_start());
  }
  [[nodiscard]] double now() const noexcept override { return inner_->now(); }

 private:
  std::unique_ptr<scenario::DynamicsCursor> inner_;
  Recorder& recorder_;
};

class TimedDynamics final : public scenario::Dynamics {
 public:
  TimedDynamics(std::shared_ptr<const scenario::Dynamics> inner,
                Recorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] double duration() const noexcept override {
    return inner_->duration();
  }
  [[nodiscard]] std::optional<std::size_t> initial_size()
      const noexcept override {
    return inner_->initial_size();
  }

  /// The gap since the GraphFactory returned is the topology embed:
  /// Simulator construction plus Simulator::set_topology.
  [[nodiscard]] std::unique_ptr<scenario::DynamicsCursor> bind(
      net::Graph& graph, support::RngStream rng) const override {
    const double start = recorder_.tracing() ? seconds_since_start() : 0.0;
    if (recorder_.tracing()) {
      recorder_.span("topo.embed", recorder_.current().factory_end, start);
    }
    auto cursor = std::make_unique<TimedCursor>(inner_->bind(graph, rng),
                                                recorder_);
    if (recorder_.tracing()) {
      recorder_.span("scenario.bind", start, seconds_since_start());
    }
    return cursor;
  }

 private:
  std::shared_ptr<const scenario::Dynamics> inner_;
  Recorder& recorder_;
};

// --- result summary ---------------------------------------------------------

/// FNV-1a over the bytes of every series point, in replica order.
std::uint64_t series_digest(const std::vector<scenario::Series>& replicas) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    mix(r);
    for (const scenario::SeriesPoint& p : replicas[r]) {
      mix(std::bit_cast<std::uint64_t>(p.time));
      mix(std::bit_cast<std::uint64_t>(p.truth));
      mix(std::bit_cast<std::uint64_t>(p.estimate));
      mix(p.messages);
      mix(p.valid ? 1u : 0u);
    }
  }
  return h;
}

/// The per-replica rows `p2pse_matrix --csv` writes, in its format.
void write_series_csv(const std::vector<scenario::Series>& replicas,
                      const std::string& path) {
  harness::FigureReport report;
  report.raw_columns = {"replica", "time",     "truth",
                        "estimate", "messages", "valid"};
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    for (const scenario::SeriesPoint& p : replicas[r]) {
      report.raw_rows.push_back({static_cast<double>(r), p.time, p.truth,
                                 p.estimate, static_cast<double>(p.messages),
                                 p.valid ? 1.0 : 0.0});
    }
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write --csv path '" + path + "'");
  harness::write_csv_file(out, report);
}

void write_spans(const Recorder& recorder, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write --spans path '" + path + "'");
  }
  // Chrome trace-event format: one complete ("X") event per span, lane =
  // replica + 1 (lane 0 is the coordinating thread).
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const SpanRecord& s) {
    out << (first ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.replica + 1
        << ",\"ts\":" << obs::json_number(s.start * 1e6)
        << ",\"dur\":" << obs::json_number((s.end - s.start) * 1e6) << "}";
    first = false;
  };
  for (const SpanRecord& s : recorder.main_spans()) emit(s);
  for (const ReplicaLog& log : recorder.logs()) {
    for (const SpanRecord& s : log.spans) emit(s);
  }
  out << "]}\n";
}

double span_total(const std::vector<SpanRecord>& spans,
                  std::string_view prefix) {
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name).starts_with(prefix)) total += s.end - s.start;
  }
  return total;
}

/// Small ordered JSON object writer for the result line.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    return raw(key, obs::json_number(value));
  }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, "\"" + obs::json_escape(value) + "\"");
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":");
    body_.append(json);
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(obs::json_number(values[i]));
  }
  out.push_back(']');
  return out;
}

int run(int argc, char** argv) {
  const support::Args args(argc, argv);
  args.require_known({"estimator", "scenario", "nodes", "replicas", "threads",
                      "estimations", "rounds-per-unit", "seed", "topo",
                      "stats-json", "trace", "spans", "csv"});
  const std::string estimator_spec = args.get_string("estimator", "");
  const std::string scenario_spec = args.get_string("scenario", "");
  if (estimator_spec.empty() || scenario_spec.empty()) {
    throw std::invalid_argument("--estimator and --scenario are required");
  }
  const std::size_t replicas = args.get_uint("replicas", 1);
  if (replicas == 0) throw std::invalid_argument("--replicas must be >= 1");
  const std::size_t estimations = args.get_uint("estimations", 100);
  const double rounds_per_unit = args.get_double("rounds-per-unit", 10.0);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const bool tracing = args.get_uint("trace", 0) != 0;
  const std::string stats_path = args.get_string("stats-json", "");
  const std::string topo_spec = args.get_string("topo", "");

  // Resolve: a trace: spec synthesises its session trace here.
  const double resolve_start = seconds_since_start();
  const std::shared_ptr<const scenario::Dynamics> workload =
      scenario::workload_by_name(scenario_spec, args.get_uint("nodes", 10000));
  const double resolve_end = seconds_since_start();
  const auto* trace_workload =
      dynamic_cast<const trace::TraceDynamics*>(workload.get());
  std::uint64_t sessions = 0;
  if (trace_workload != nullptr) {
    const trace::ChurnTrace& churn = trace_workload->trace();
    sessions = churn.initial_sessions +
               static_cast<std::uint64_t>(std::count_if(
                   churn.events.begin(), churn.events.end(),
                   [](const trace::TraceEvent& e) {
                     return e.kind == trace::TraceEvent::Kind::kJoin;
                   }));
  }
  const std::size_t nodes =
      workload->initial_size().value_or(args.get_uint("nodes", 10000));

  std::unique_ptr<est::Estimator> inner =
      est::EstimatorRegistry::global().build(estimator_spec);
  // The call after which a replica's counters are final: its last
  // estimate_point, or its last gossip round.
  const std::uint64_t final_call =
      inner->mode() == est::Estimator::Mode::kEpoch
          ? static_cast<std::uint64_t>(
                std::llround(workload->duration() * rounds_per_unit))
          : estimations;
  const bool telemetry_on = !stats_path.empty();

  Recorder recorder(tracing, replicas, final_call, telemetry_on);
  if (trace_workload != nullptr) {
    recorder.span("trace.generate", resolve_start, resolve_end);
  }
  const TimedEstimator proto(std::move(inner), recorder);
  const auto dynamics = std::make_shared<TimedDynamics>(workload, recorder);
  scenario::GraphFactory factory = [&recorder, nodes](support::RngStream& rng) {
    const double start = recorder.tracing() ? seconds_since_start() : 0.0;
    net::Graph graph = net::build_heterogeneous_random({nodes, 1, 10}, rng);
    recorder.graph_built(graph, start);
    return graph;
  };
  const scenario::ScenarioRunner runner(dynamics, std::move(factory), seed);

  obs::RunTelemetry telemetry;
  scenario::ScenarioRunner::RunOptions options;
  options.estimations = estimations;
  options.rounds_per_unit = rounds_per_unit;
  if (!topo_spec.empty()) {
    options.topology = topo::TopologyConfig::parse(topo_spec);
  }
  options.telemetry = telemetry_on ? &telemetry : nullptr;
  options.sim_workers = 1;

  const harness::ParallelReplicaRunner pool(args.get_uint("threads", 1));
  std::vector<double> replica_busy(replicas, 0.0);
  const double fanout_start = seconds_since_start();
  const std::vector<scenario::Series> series =
      pool.map<scenario::Series>(replicas, [&](std::size_t r) {
        tl_replica = static_cast<int>(r);
        const double start = seconds_since_start();
        scenario::Series out =
            runner.run(proto, options, static_cast<std::uint64_t>(r));
        replica_busy[r] = seconds_since_start() - start;
        recorder.span("harness.replica", start, start + replica_busy[r]);
        tl_replica = -1;
        return out;
      });
  const double fanout_end = seconds_since_start();
  recorder.span("harness.fanout", fanout_start, fanout_end);

  // Report: outcome tallies, accuracy and the series digest.
  std::uint64_t attempted = 0;
  std::uint64_t invalid = 0;
  std::uint64_t bad_valid = 0;
  double abs_error_sum = 0.0;
  for (const scenario::Series& s : series) {
    for (const scenario::SeriesPoint& p : s) {
      ++attempted;
      if (!p.valid) {
        ++invalid;
        continue;
      }
      if (!std::isfinite(p.estimate) || p.estimate <= 0.0) ++bad_valid;
      abs_error_sum += std::abs(p.estimate - p.truth) / p.truth;
    }
  }
  const std::uint64_t valid = attempted - invalid;
  if (args.has("csv")) write_series_csv(series, args.get_string("csv", ""));

  double write_s = 0.0;
  if (telemetry_on) {
    const double write_start = seconds_since_start();
    obs::HostStats host;
    host.threads_requested = static_cast<int>(pool.thread_count());
    host.peak_rss_kb = obs::peak_rss_kb();
    host.phase_seconds = telemetry.trace().phase_totals();
    const std::string params = "estimator=" + estimator_spec +
                               " scenario=" + scenario_spec +
                               " nodes=" + std::to_string(nodes) +
                               " replicas=" + std::to_string(replicas) +
                               " seed=" + std::to_string(seed);
    std::ofstream out(stats_path);
    if (!out) {
      throw std::runtime_error("cannot write --stats-json path '" +
                               stats_path + "'");
    }
    out << obs::run_stats_document(
        obs::sim_section("e2ebench_" + std::string(proto.name()), params,
                         telemetry.sim()),
        obs::host_section(host));
    out.close();
    const double write_end = seconds_since_start();
    write_s = write_end - write_start;
    recorder.span("obs.write", write_start, write_end);
  }
  const double wall = seconds_since_start();

  std::uint64_t messages = 0;
  bool calls_ok = true;
  for (const ReplicaLog& log : recorder.logs()) {
    messages += log.meter_total;
    calls_ok = calls_ok && log.calls == final_call;
  }
  const ReplicaLog& first = recorder.logs().front();
  JsonObject result;
  result.str("mode", tracing ? "traced" : "untraced")
      .num("wall_s", wall)
      .num("setup_s", recorder.first_call())
      .count("peak_rss_kb", static_cast<std::uint64_t>(obs::peak_rss_kb()))
      .count("messages", messages)
      .count("attempted", attempted)
      .count("invalid", invalid)
      .count("bad_valid", bad_valid)
      .raw("calls_ok", calls_ok ? "true" : "false")
      .str("digest", std::to_string(series_digest(series)))
      .num("valid_frac", attempted ? static_cast<double>(valid) /
                                         static_cast<double>(attempted)
                                   : 0.0)
      .num("mean_abs_error_pct",
           valid ? 100.0 * abs_error_sum / static_cast<double>(valid) : 0.0)
      .count("graph_nodes", first.nodes)
      .count("graph_edges", first.edges)
      .count("graph_adjacency_bytes", first.arena_slots * sizeof(net::NodeId))
      // Extent (16 B) + degree (4 B) + alive position (4 B) per slot, plus
      // the alive list (4 B per alive node).
      .count("graph_node_table_bytes",
             first.node_slots * 24 + first.nodes * sizeof(net::NodeId));

  if (tracing) {
    std::vector<SpanRecord> all = recorder.main_spans();
    std::vector<double> call_ms;
    std::array<std::uint64_t, kClasses> msgs{};
    std::uint64_t bytes = 0;
    sim::Channel::Counters channel{};
    net::Graph::Counters graph{};
    std::uint64_t built_nodes = 0;
    std::uint64_t built_edges = 0;
    double collect_s = 0.0;
    bool collect_matches = true;
    for (const ReplicaLog& log : recorder.logs()) {
      all.insert(all.end(), log.spans.begin(), log.spans.end());
      call_ms.insert(call_ms.end(), log.call_ms.begin(), log.call_ms.end());
      for (std::size_t c = 0; c < kClasses; ++c) msgs[c] += log.messages[c];
      bytes += log.bytes;
      channel.sends_iid += log.channel.sends_iid;
      channel.sends_link += log.channel.sends_link;
      channel.drops += log.channel.drops;
      channel.retransmits += log.channel.retransmits;
      channel.arq_timeouts += log.channel.arq_timeouts;
      graph.joins += log.graph.joins - log.built.joins;
      graph.leaves += log.graph.leaves - log.built.leaves;
      built_nodes += log.nodes;
      built_edges += log.edges;
      collect_s += log.collect_s;
      if (log.collected) {
        collect_matches = collect_matches &&
                          log.collected->messages_total == log.meter_total &&
                          log.collected->graph_joins == log.graph.joins &&
                          log.collected->graph_leaves == log.graph.leaves &&
                          log.collected->channel_drops == log.channel.drops;
      }
    }
    const double trace_s = span_total(all, "trace.generate");
    const double build_s = span_total(all, "net.build");
    const double embed_s = span_total(all, "topo.embed");
    const double bind_s = span_total(all, "scenario.bind");
    const double churn_s = span_total(all, "scenario.advance_to");
    const double est_s = span_total(all, "est.");
    double busy = 0.0;
    for (const double b : replica_busy) busy += b;
    const double fanout_s = fanout_end - fanout_start;
    // Wall-clock accounting: the coordinating thread's own layers count at
    // face value; in-replica time not covered by a layer span is scaled by
    // fan-out wall / replica busy, the fan-out's parallel compression.
    const double in_replica_layers =
        build_s + embed_s + bind_s + churn_s + est_s + collect_s;
    const double unattributed =
        (wall - trace_s - fanout_s - write_s) +
        (busy > 0.0 ? (busy - in_replica_layers) * fanout_s / busy : 0.0);

    JsonObject msg_json;
    for (std::size_t c = 0; c < kClasses; ++c) {
      msg_json.count(sim::to_string(static_cast<sim::MessageClass>(c)),
                     msgs[c]);
    }
    JsonObject layers;
    layers.num("trace_generate_s", trace_s)
        .count("trace_sessions", sessions)
        .num("net_build_s", build_s)
        .count("net_nodes", built_nodes)
        .count("net_edges", built_edges)
        .num("topo_embed_s", embed_s)
        .num("scenario_bind_s", bind_s)
        .num("scenario_churn_s", churn_s)
        .count("joins", graph.joins)
        .count("leaves", graph.leaves)
        .num("est_busy_s", est_s)
        .raw("call_ms", json_list(call_ms))
        .raw("messages", msg_json.text())
        .count("bytes", bytes)
        .count("sends_iid", channel.sends_iid)
        .count("sends_link", channel.sends_link)
        .count("drops", channel.drops)
        .count("retransmits", channel.retransmits)
        .count("arq_timeouts", channel.arq_timeouts)
        .num("obs_collect_s", collect_s)
        .raw("collect_matches", collect_matches ? "true" : "false")
        .num("obs_write_s", write_s)
        .num("fanout_s", fanout_s)
        .num("replica_busy_s", busy)
        .count("threads", pool.thread_count())
        .num("unattributed_s", unattributed);
    result.raw("layers", layers.text());
    if (args.has("spans")) write_spans(recorder, args.get_string("spans", ""));
  }
  std::cout << result.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], error.what());
    return 1;
  }
}
