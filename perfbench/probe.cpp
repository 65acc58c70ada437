// perfbench_probe: the in-process half of the repo benchmark (run.py).
//
//   perfbench_probe reference <cells.tsv> [--threads=N]
//       One cell group per input line:
//         topology <TAB> policy <TAB> adversary <TAB> steps <TAB> seed[,seed…]
//       Prints, per seed, the same fields plus peak, injected, delivered and
//       the topology's node count,
//       computed through the public simulation APIs — lane blocks of 16 for
//       oblivious lane-eligible groups (the service uses 64), the scalar
//       Simulator otherwise, RouteSimulator for grid/line topologies.
//
//   perfbench_probe trace <requests.tsv> --spans=<out.json> [--threads=N]
//                   [--queue=N] [--cache-entries=N] [--closed=C]
//       One request per input line: due_us <TAB> request-json, where a due
//       of "w" marks a warm-up request: each pass runs those first and does
//       not measure them.  Runs the list four times in process and prints
//       one JSON object of per-layer metrics (see perfbench/README.md):
//         S  through cvg::serve::Service::process_line, sequentially — the
//            exact work counts and the process_line span;
//         U  through the benchmark's mirror of the service's layer calls,
//            untraced — the wall the tracing overhead is measured against;
//         T  the same mirror with spans at every layer boundary (U and T
//            run twice, alternating; each keeps its faster wall);
//         P  the mirror on a cvg::WorkerPool, fed open-loop at the due times
//            (or closed-loop with C requests in flight) — pool queue wait.
//       Spans (name, start, end, parent, request) of T and of the fixed
//       calibration panel are kept in memory and written to --spans at exit.

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cvg/adversary/registry.hpp"
#include "cvg/corpus/format.hpp"
#include "cvg/corpus/replay.hpp"
#include "cvg/parallel/parallel_for.hpp"
#include "cvg/parallel/pool.hpp"
#include "cvg/policy/registry.hpp"
#include "cvg/route/net.hpp"
#include "cvg/route/registry.hpp"
#include "cvg/route/route_sim.hpp"
#include "cvg/route/traffic.hpp"
#include "cvg/serve/cache.hpp"
#include "cvg/serve/job.hpp"
#include "cvg/serve/json.hpp"
#include "cvg/serve/service.hpp"
#include "cvg/sim/lane_engine.hpp"
#include "cvg/sim/simulator.hpp"
#include "cvg/topology/spec.hpp"
#include "cvg/util/fnv.hpp"

namespace {

using namespace cvg;
using Clock = std::chrono::steady_clock;

/// Lane width the service runs sweep blocks at; it is part of every lane
/// cell's cache key, so the mirror must use the same value.
constexpr std::uint32_t kServeLaneWidth = 64;
/// Lane width of the reference: deliberately not the service's, so the
/// reference groups lanes differently from the code it checks.
constexpr std::size_t kReferenceLanes = 16;
constexpr std::size_t kCacheBytes = 64ull << 20;  // ServiceOptions default

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  while (true) {
    const std::size_t at = text.find(sep);
    out.emplace_back(text.substr(0, at));
    if (at == std::string_view::npos) return out;
    text.remove_prefix(at + 1);
  }
}

[[nodiscard]] std::uint64_t to_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    std::fprintf(stderr, "perfbench_probe: bad number '%.*s'\n",
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench_probe: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

[[nodiscard]] build::TopologySpec parse_spec(const std::string& topology) {
  std::string error;
  const auto spec = build::parse_topology_spec(topology, error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "perfbench_probe: topology %s: %s\n",
                 topology.c_str(), error.c_str());
    std::exit(2);
  }
  return *spec;
}

[[nodiscard]] std::uint64_t node_count(const std::string& topology) {
  return build::spec_node_count(parse_spec(topology));
}

[[nodiscard]] SimOptions sim_options(const serve::JobRequest& request) {
  SimOptions options;
  options.capacity = request.capacity;
  options.burstiness = request.burstiness;
  options.semantics = request.semantics;
  return options;
}

// ---------------------------------------------------------------- tracing

/// Fixed timed sections inside a span that are too fine-grained to be spans
/// of their own (one per simulation step): their time is attributed to the
/// enclosing span as covered child time.
enum Section : std::size_t {
  kPlanAdaptive,
  kPlanOblivious,
  kRoutePlan,
  kSectionCount,
};
constexpr std::array<const char*, kSectionCount> kSectionNames = {
    "adversary.plan.adaptive", "adversary.plan.oblivious",
    "route.traffic.plan"};

struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  std::uint64_t work = 0;     ///< units of work the span covered
  std::int64_t covered = 0;   ///< child span + section time inside it
};

/// Per-name aggregate of spans (or sections).
struct Aggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t work = 0;
  std::vector<std::int64_t> durations;  ///< per span, for medians
};

/// Single-threaded span recorder: spans nest on one stack, are kept in
/// memory and written out at exit.  Disabled, every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_request(std::uint32_t request) { request_ = request; }

  [[nodiscard]] std::int32_t open(const char* name, std::uint64_t work) {
    if (!enabled_) return -1;
    SpanRecord span;
    span.name = name;
    span.parent = open_;
    span.request = request_;
    span.work = work;
    spans_.push_back(span);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    spans_.back().start = now_ns();
    return open_;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    SpanRecord& span = spans_[static_cast<std::size_t>(index)];
    span.end = now_ns();
    open_ = span.parent;
    if (open_ >= 0) {
      spans_[static_cast<std::size_t>(open_)].covered += span.end - span.start;
    }
  }

  void add_section(Section section, std::int64_t ns) {
    sections_[section].count += 1;
    sections_[section].total_ns += ns;
    sections_[section].self_ns += ns;
    if (open_ >= 0) spans_[static_cast<std::size_t>(open_)].covered += ns;
  }

  [[nodiscard]] std::map<std::string, Aggregate> aggregates() const {
    std::map<std::string, Aggregate> out;
    for (const SpanRecord& span : spans_) {
      Aggregate& agg = out[span.name];
      agg.count += 1;
      agg.total_ns += span.end - span.start;
      agg.self_ns += span.end - span.start - span.covered;
      agg.work += span.work;
      agg.durations.push_back(span.end - span.start);
    }
    for (std::size_t s = 0; s < kSectionCount; ++s) {
      if (sections_[s].count > 0) out[kSectionNames[s]] = sections_[s];
    }
    return out;
  }

  /// Σ duration of the direct children of root ("request") spans.
  [[nodiscard]] std::int64_t layer_ns() const {
    std::int64_t total = 0;
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0 &&
          spans_[static_cast<std::size_t>(span.parent)].parent < 0) {
        total += span.end - span.start;
      }
    }
    return total;
  }

  void write(std::ostream& out, const char* pass, bool& first) const {
    for (const SpanRecord& span : spans_) {
      out << (first ? "\n" : ",\n") << "[\"" << pass << "\",\"" << span.name
          << "\"," << span.start << ',' << span.end << ',' << span.parent
          << ',' << span.request << ',' << span.work << ']';
      first = false;
    }
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::array<Aggregate, kSectionCount> sections_{};
  std::int32_t open_ = -1;
  std::uint32_t request_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t work = 0)
      : tracer_(tracer), index_(tracer.open(name, work)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// --------------------------------------------------- the serving mirror

/// One cell's outcome, as the service reports it.
struct CellOutcome {
  Height peak = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
};

/// Tallies the mirror keeps beside the spans.
struct MirrorCounts {
  std::uint64_t lane_blocks = 0;
  std::uint64_t lanes = 0;
  std::uint64_t errors = 0;
};

/// The mirror's live tallies; pool workers share one mirror.
struct AtomicCounts {
  std::atomic<std::uint64_t> lane_blocks{0};
  std::atomic<std::uint64_t> lanes{0};
  std::atomic<std::uint64_t> errors{0};

  [[nodiscard]] MirrorCounts load() const {
    return {lane_blocks.load(), lanes.load(), errors.load()};
  }
};

/// The benchmark's copy of the service's per-request layer calls
/// (src/serve/src/service.cpp), one public function per span, so each
/// layer's time can be read without instrumenting the program itself.
/// `trace.coverage_share` compares its total with Service::process_line.
class Mirror {
 public:
  Mirror(std::size_t cache_entries, const serve::Service* stats_service)
      : cache_(cache_entries, kCacheBytes), stats_service_(stats_service) {}

  [[nodiscard]] MirrorCounts counts() const { return counts_.load(); }

  /// Handles one request line; returns the response line.  Thread-safe
  /// when each thread passes its own `tracer`.
  std::string handle(std::string_view line, Tracer& tr) {
    Scope root(tr, "request");
    const auto t0 = Clock::now();
    serve::JobError error;
    std::optional<serve::JobRequest> parsed;
    {
      Scope s(tr, "serve.job.parse");
      parsed = serve::parse_request(line, error);
    }
    if (!parsed.has_value()) {
      ++counts_.errors;
      Scope s(tr, "serve.job.format");
      return serve::format_error_response("", error);
    }
    const serve::JobRequest& request = *parsed;
    switch (request.kind) {
      case serve::JobKind::Stats: {
        Scope s(tr, "serve.service.stats");
        return stats_service_->stats_response(request.id);
      }
      case serve::JobKind::Run:
        return handle_run(request, tr, t0);
      case serve::JobKind::Sweep:
        return handle_sweep(request, tr, t0);
      case serve::JobKind::Replay:
        return handle_replay(request, tr, t0);
      default:
        ++counts_.errors;
        return serve::format_error_response(
            request.id, {"bad_request", "op outside the benchmark's mix"});
    }
  }

 private:
  [[nodiscard]] static std::uint64_t micros_since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count());
  }

  [[nodiscard]] static std::uint64_t cell_key(const std::string& topology,
                                              const std::string& policy_name,
                                              const serve::JobRequest& request,
                                              std::uint64_t seed) {
    if (build::is_route_topology_spec(topology)) {
      return serve::run_job_hash(topology, policy_name, request.adversary,
                                 request.steps, request.capacity,
                                 request.burstiness, request.semantics, seed,
                                 "route", 0);
    }
    const PolicyPtr policy = make_policy(policy_name);
    const bool lanes = LaneSimulator::supported(*policy, sim_options(request));
    return serve::run_job_hash(topology, policy_name, request.adversary,
                               request.steps, request.capacity,
                               request.burstiness, request.semantics, seed,
                               lanes ? "lanes" : "scalar",
                               lanes ? kServeLaneWidth : 0);
  }

  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key,
                                                  Tracer& tr) {
    Scope s(tr, "serve.cache.lookup");
    return cache_.lookup(key);
  }

  void insert(std::uint64_t key, const std::string& payload, Tracer& tr) {
    Scope s(tr, "serve.cache.insert");
    cache_.insert(key, payload);
  }

  [[nodiscard]] static std::string cell_payload(
      const std::string& topology, const std::string& policy,
      const serve::JobRequest& request, std::uint64_t seed,
      const CellOutcome& cell, Tracer& tr) {
    Scope s(tr, "serve.job.payload");
    serve::JsonObject object;
    object.emplace_back("topology", serve::JsonValue(topology));
    object.emplace_back("policy", serve::JsonValue(policy));
    object.emplace_back("adversary", serve::JsonValue(request.adversary));
    object.emplace_back("steps", serve::JsonValue(request.steps));
    object.emplace_back("seed", serve::JsonValue(seed));
    object.emplace_back("peak", serve::JsonValue(cell.peak));
    object.emplace_back("injected", serve::JsonValue(cell.injected));
    object.emplace_back("delivered", serve::JsonValue(cell.delivered));
    return serve::write_json(serve::JsonValue(std::move(object)));
  }

  [[nodiscard]] static CellOutcome route_cell(const std::string& topology,
                                              const std::string& policy_name,
                                              const serve::JobRequest& request,
                                              std::uint64_t seed,
                                              Tracer& tr) {
    std::optional<route::RouteNet> net;
    {
      Scope s(tr, "topology.build");
      net.emplace(route::make_net(parse_spec(topology)));
    }
    const route::RoutePolicyPtr policy = route::make_route_policy(policy_name);
    const SimOptions options = sim_options(request);
    const route::RouteTrafficPtr traffic =
        route::make_route_traffic(request.adversary, seed);
    route::RouteSimulator sim(*net, *policy, options, seed);
    std::vector<route::RouteFlow> flows;
    Scope s(tr, "route.sim", net->node_count() * request.steps);
    for (Step step = 0; step < request.steps; ++step) {
      flows.clear();
      if (tr.enabled()) {
        const std::int64_t t0 = now_ns();
        traffic->plan(*net, step, options.capacity, flows);
        tr.add_section(kRoutePlan, now_ns() - t0);
      } else {
        traffic->plan(*net, step, options.capacity, flows);
      }
      sim.step_flows(flows);
    }
    return {sim.peak_height(), sim.injected(), sim.delivered()};
  }

  [[nodiscard]] CellOutcome run_cell(const std::string& topology,
                                     const std::string& policy_name,
                                     const serve::JobRequest& request,
                                     std::uint64_t seed, Tracer& tr) {
    if (build::is_route_topology_spec(topology)) {
      return route_cell(topology, policy_name, request, seed, tr);
    }
    std::optional<Tree> tree;
    {
      Scope s(tr, "topology.build");
      tree.emplace(build::make_tree(parse_spec(topology)));
    }
    const PolicyPtr policy = make_policy(policy_name);
    const SimOptions options = sim_options(request);
    adversary::AdversaryContext context;
    context.tree = &*tree;
    context.policy = policy.get();
    context.options = options;
    context.seed = seed;
    const AdversaryPtr adv = adversary::make_adversary(request.adversary, context);
    adv->on_simulation_start();
    const Section plan_section = adv->oblivious() ? kPlanOblivious : kPlanAdaptive;

    CellOutcome out;
    std::vector<NodeId> injections;
    const auto drive = [&](auto& sim) {
      Scope s(tr, "sim.scalar", tree->node_count() * request.steps);
      for (Step step = 0; step < request.steps; ++step) {
        injections.clear();
        if (tr.enabled()) {
          const std::int64_t t0 = now_ns();
          adv->plan(*tree, sim.config(), step, options.capacity, injections);
          tr.add_section(plan_section, now_ns() - t0);
        } else {
          adv->plan(*tree, sim.config(), step, options.capacity, injections);
        }
        sim.step(injections);
      }
      out = {sim.peak_height(), sim.injected(), sim.delivered()};
    };
    if (LaneSimulator::supported(*policy, options)) {
      LaneSimulator sim(*tree, *policy, options, /*lanes=*/1);
      drive(sim);
    } else {
      Simulator sim(*tree, *policy, options);
      drive(sim);
    }
    return out;
  }

  /// One (topology, policy) sweep block across `seeds`, appending a payload
  /// per seed — the service's execute_sweep_block.
  void sweep_block(const std::string& topology, const std::string& policy_name,
                   const serve::JobRequest& request,
                   std::span<const std::uint64_t> seeds,
                   std::vector<std::string>& payloads, Tracer& tr) {
    if (build::is_route_topology_spec(topology)) {
      for (const std::uint64_t seed : seeds) {
        const CellOutcome cell =
            route_cell(topology, policy_name, request, seed, tr);
        payloads.push_back(
            cell_payload(topology, policy_name, request, seed, cell, tr));
      }
      return;
    }
    std::optional<Tree> tree;
    {
      Scope s(tr, "topology.build");
      tree.emplace(build::make_tree(parse_spec(topology)));
    }
    const PolicyPtr policy = make_policy(policy_name);
    const SimOptions options = sim_options(request);
    bool lane_eligible =
        seeds.size() > 1 && LaneSimulator::supported(*policy, options);
    std::vector<LaneSchedule> schedules;
    if (lane_eligible) {
      Scope s(tr, "adversary.unroll", seeds.size());
      schedules.reserve(seeds.size());
      for (const std::uint64_t seed : seeds) {
        adversary::AdversaryContext context;
        context.tree = &*tree;
        context.policy = policy.get();
        context.options = options;
        context.seed = seed;
        const AdversaryPtr adv =
            adversary::make_adversary(request.adversary, context);
        if (!adv->oblivious()) {
          lane_eligible = false;
          break;
        }
        schedules.push_back(
            unroll_oblivious(*tree, *adv, request.steps, options.capacity));
      }
    }
    if (!lane_eligible) {
      for (const std::uint64_t seed : seeds) {
        const CellOutcome cell =
            run_cell(topology, policy_name, request, seed, tr);
        payloads.push_back(
            cell_payload(topology, policy_name, request, seed, cell, tr));
      }
      return;
    }
    ++counts_.lane_blocks;
    counts_.lanes += seeds.size();
    LaneSimulator sim(*tree, *policy, options, seeds.size());
    std::vector<std::span<const NodeId>> row(seeds.size());
    {
      Scope s(tr, "sim.lanes", seeds.size() * tree->node_count() * request.steps);
      for (Step step = 0; step < request.steps; ++step) {
        for (std::size_t lane = 0; lane < seeds.size(); ++lane) {
          row[lane] = schedules[lane][static_cast<std::size_t>(step)];
        }
        sim.step_lanes(row);
      }
    }
    for (std::size_t lane = 0; lane < seeds.size(); ++lane) {
      const CellOutcome cell{sim.lane_peak(lane), sim.lane_injected(lane),
                             sim.lane_delivered(lane)};
      payloads.push_back(
          cell_payload(topology, policy_name, request, seeds[lane], cell, tr));
    }
  }

  std::string handle_run(const serve::JobRequest& request, Tracer& tr,
                         Clock::time_point t0) {
    const std::string& topology = request.topologies.front();
    const std::string& policy = request.policies.front();
    std::uint64_t key = 0;
    {
      Scope s(tr, "serve.cache.key");
      key = cell_key(topology, policy, request, request.seed);
    }
    std::string payload;
    bool cached = false;
    if (request.use_cache) {
      if (std::optional<std::string> hit = lookup(key, tr)) {
        payload = std::move(*hit);
        cached = true;
      }
    }
    if (!cached) {
      const CellOutcome cell = run_cell(topology, policy, request, request.seed, tr);
      payload = cell_payload(topology, policy, request, request.seed, cell, tr);
      if (request.use_cache) insert(key, payload, tr);
    }
    Scope s(tr, "serve.job.format");
    return serve::format_ok_response(request.id, payload, cached,
                                     micros_since(t0));
  }

  std::string handle_sweep(const serve::JobRequest& request, Tracer& tr,
                           Clock::time_point t0) {
    const std::vector<std::uint64_t> seeds =
        request.seeds.empty() ? std::vector<std::uint64_t>{request.seed}
                              : request.seeds;
    std::vector<std::string> cells(request.topologies.size() *
                                   request.policies.size() * seeds.size());
    std::uint64_t cached_cells = 0;
    std::size_t index = 0;
    for (const std::string& topology : request.topologies) {
      for (const std::string& policy : request.policies) {
        std::vector<std::uint64_t> block_seeds;
        std::vector<std::size_t> slots;
        std::vector<std::uint64_t> keys;
        for (const std::uint64_t seed : seeds) {
          const std::size_t slot = index++;
          std::uint64_t key = 0;
          {
            Scope s(tr, "serve.cache.key");
            key = cell_key(topology, policy, request, seed);
          }
          if (request.use_cache) {
            if (std::optional<std::string> hit = lookup(key, tr)) {
              cells[slot] = std::move(*hit);
              ++cached_cells;
              continue;
            }
          }
          block_seeds.push_back(seed);
          slots.push_back(slot);
          keys.push_back(key);
        }
        if (block_seeds.empty()) continue;
        std::vector<std::string> payloads;
        payloads.reserve(block_seeds.size());
        sweep_block(topology, policy, request, block_seeds, payloads, tr);
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          if (request.use_cache) insert(keys[i], payloads[i], tr);
          cells[slots[i]] = std::move(payloads[i]);
        }
      }
    }
    Scope s(tr, "serve.job.format");
    std::string list = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) list += ",";
      list += cells[i];
    }
    list += "]";
    const std::uint64_t total = cells.size();
    const std::string payload = "{\"cells\":" + list +
                                ",\"cell_count\":" + std::to_string(total) +
                                ",\"cached_cells\":" +
                                std::to_string(cached_cells) + "}";
    return serve::format_ok_response(request.id, payload, cached_cells == total,
                                     micros_since(t0));
  }

  std::string handle_replay(const serve::JobRequest& request, Tracer& tr,
                            Clock::time_point t0) {
    std::string error;
    std::optional<corpus::CorpusEntry> entry;
    {
      Scope s(tr, "corpus.load");
      entry = corpus::load_entry(request.file, error);
    }
    if (!entry.has_value() || !is_known_policy(entry->policy)) {
      ++counts_.errors;
      return serve::format_error_response(request.id, {"not_found", error});
    }
    std::uint64_t key = 0;
    {
      Scope s(tr, "serve.cache.key");
      Fnv1a hash;
      hash.str("replay");
      hash.str(request.file);
      hash.u64(corpus::content_hash(*entry));
      key = hash.value();
    }
    std::string payload;
    bool cached = false;
    if (request.use_cache) {
      if (std::optional<std::string> hit = lookup(key, tr)) {
        payload = std::move(*hit);
        cached = true;
      }
    }
    if (!cached) {
      Height replayed = 0;
      {
        Scope s(tr, "corpus.replay");
        replayed = corpus::replay_entry(*entry);
      }
      {
        Scope s(tr, "serve.job.payload");
        serve::JsonObject object;
        object.emplace_back("file", serve::JsonValue(request.file));
        object.emplace_back("topology", serve::JsonValue(entry->topology));
        object.emplace_back("policy", serve::JsonValue(entry->policy));
        object.emplace_back("steps", serve::JsonValue(entry->schedule.size()));
        object.emplace_back("recorded", serve::JsonValue(entry->peak));
        object.emplace_back("replayed", serve::JsonValue(replayed));
        object.emplace_back("ok", serve::JsonValue(replayed >= entry->peak));
        payload = serve::write_json(serve::JsonValue(std::move(object)));
      }
      if (request.use_cache) insert(key, payload, tr);
    }
    Scope s(tr, "serve.job.format");
    return serve::format_ok_response(request.id, payload, cached,
                                     micros_since(t0));
  }

  serve::ResultCache cache_;
  const serve::Service* stats_service_;
  AtomicCounts counts_;
};

// ------------------------------------------------------------ reference

/// Prints one line per seed of one cell group.
[[nodiscard]] std::string reference_group(const std::string& line) {
  const std::vector<std::string> f = split(line, '\t');
  if (f.size() != 5) {
    std::fprintf(stderr, "perfbench_probe: bad cell line '%s'\n", line.c_str());
    std::exit(2);
  }
  const std::string& topology = f[0];
  const std::string& policy_name = f[1];
  const std::string& adversary_name = f[2];
  const Step steps = to_u64(f[3]);
  std::vector<std::uint64_t> seeds;
  for (const std::string& s : split(f[4], ',')) seeds.push_back(to_u64(s));

  std::vector<CellOutcome> outcomes(seeds.size());
  SimOptions options;  // capacity 1, burstiness 0, decide-before-injection
  if (build::is_route_topology_spec(topology)) {
    const route::RouteNet net = route::make_net(parse_spec(topology));
    const route::RoutePolicyPtr policy = route::make_route_policy(policy_name);
    std::vector<route::RouteFlow> flows;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const route::RouteTrafficPtr traffic =
          route::make_route_traffic(adversary_name, seeds[i]);
      route::RouteSimulator sim(net, *policy, options, seeds[i]);
      for (Step step = 0; step < steps; ++step) {
        flows.clear();
        traffic->plan(net, step, options.capacity, flows);
        sim.step_flows(flows);
      }
      outcomes[i] = {sim.peak_height(), sim.injected(), sim.delivered()};
    }
  } else {
    const Tree tree = build::make_tree(parse_spec(topology));
    const PolicyPtr policy = make_policy(policy_name);
    const auto make_adv = [&](std::uint64_t seed) {
      adversary::AdversaryContext context;
      context.tree = &tree;
      context.policy = policy.get();
      context.options = options;
      context.seed = seed;
      return adversary::make_adversary(adversary_name, context);
    };
    const bool lanes = LaneSimulator::supported(*policy, options) &&
                       make_adv(seeds.front())->oblivious();
    for (std::size_t first = 0; first < seeds.size();) {
      const std::size_t width =
          lanes ? std::min(kReferenceLanes, seeds.size() - first) : 1;
      if (lanes) {
        std::vector<LaneSchedule> schedules;
        for (std::size_t i = 0; i < width; ++i) {
          const AdversaryPtr adv = make_adv(seeds[first + i]);
          schedules.push_back(
              unroll_oblivious(tree, *adv, steps, options.capacity));
        }
        LaneSimulator sim(tree, *policy, options, width);
        std::vector<std::span<const NodeId>> row(width);
        for (Step step = 0; step < steps; ++step) {
          for (std::size_t i = 0; i < width; ++i) {
            row[i] = schedules[i][static_cast<std::size_t>(step)];
          }
          sim.step_lanes(row);
        }
        for (std::size_t i = 0; i < width; ++i) {
          outcomes[first + i] = {sim.lane_peak(i), sim.lane_injected(i),
                                 sim.lane_delivered(i)};
        }
      } else {
        const AdversaryPtr adv = make_adv(seeds[first]);
        adv->on_simulation_start();
        Simulator sim(tree, *policy, options);
        std::vector<NodeId> injections;
        for (Step step = 0; step < steps; ++step) {
          injections.clear();
          adv->plan(tree, sim.config(), step, options.capacity, injections);
          sim.step(injections);
        }
        outcomes[first] = {sim.peak_height(), sim.injected(), sim.delivered()};
      }
      first += width;
    }
  }
  const std::string nodes = std::to_string(node_count(topology));
  std::string out;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    out += topology + '\t' + policy_name + '\t' + adversary_name + '\t' +
           f[3] + '\t' + std::to_string(seeds[i]) + '\t' +
           std::to_string(outcomes[i].peak) + '\t' +
           std::to_string(outcomes[i].injected) + '\t' +
           std::to_string(outcomes[i].delivered) + '\t' + nodes + '\n';
  }
  return out;
}

int reference_main(const std::string& path, unsigned threads) {
  const std::vector<std::string> lines = read_lines(path);
  std::vector<std::string> out(lines.size());
  parallel_for(lines.size(), threads,
               [&](std::size_t i) { out[i] = reference_group(lines[i]); });
  for (const std::string& text : out) std::fputs(text.c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------- trace

struct TraceOptions {
  unsigned threads = 2;
  std::size_t queue = 64;
  std::size_t cache_entries = 4096;
  std::size_t closed = 0;  ///< 0 = open loop at the due times
  std::string spans_path;
};

struct Request {
  std::int64_t due_ns = 0;
  std::string line;
  bool stats = false;
};

/// The calibration panel: one request per layer, traced on every workload
/// so that a layer the workload never calls still reports a measured cost.
/// Layers the workload does call report the workload's own spans.
const std::vector<std::string>& panel_lines(const std::string& replay_file) {
  static const std::vector<std::string> lines = {
      R"({"op":"run","id":"p1","topology":"path:256","policy":"odd-even","adversary":"staged-l1","steps":1024,"seed":5})",
      R"({"op":"run","id":"p2","topology":"path:256","policy":"odd-even","adversary":"staged-l1","steps":1024,"seed":5})",
      R"({"op":"sweep","id":"p3","topologies":["path:1024"],"policies":["odd-even"],"adversary":"random-uniform","steps":256,"seeds":[)" +
          [] {
            std::string seeds;
            for (int s = 1; s <= 64; ++s) seeds += (s > 1 ? "," : "") + std::to_string(s);
            return seeds;
          }() +
          R"(],"cache":false})",
      R"({"op":"run","id":"p4","topology":"grid:8x8","policy":"route-greedy","adversary":"random-uniform","steps":512,"seed":5})",
      R"({"op":"replay","id":"p5","file":)" + serve::json_quote(replay_file) +
          "}",
  };
  return lines;
}

[[nodiscard]] double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

struct PoolResult {
  std::vector<double> queue_wait_us;
  double busy_share = 0;
  std::uint64_t queue_full = 0;
};

/// Pass P: the mirror on a WorkerPool, fed like the socket client feeds
/// the server.
PoolResult pool_pass(const std::vector<std::string>& warm,
                     const std::vector<Request>& requests,
                     const TraceOptions& opts,
                     const serve::Service& stats_service) {
  Mirror mirror(opts.cache_entries, &stats_service);
  Tracer off(false);
  for (const std::string& line : warm) (void)mirror.handle(line, off);
  struct Slot {
    std::int64_t submit = 0, start = 0, end = 0;
  };
  std::vector<Slot> slots(requests.size());
  std::mutex mutex;
  std::condition_variable done;
  std::size_t in_flight = 0;
  PoolResult result;

  WorkerPool pool(opts.threads, opts.queue);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    if (opts.closed == 0) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(t0 + request.due_ns)));
    } else {
      std::unique_lock<std::mutex> lock(mutex);
      done.wait(lock, [&] { return in_flight < opts.closed; });
    }
    if (request.stats) {  // the service answers stats inline
      (void)mirror.handle(request.line, off);
      continue;
    }
    slots[i].submit = now_ns();
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++in_flight;
    }
    const WorkerPool::Submit submitted = pool.try_submit([&, i] {
      slots[i].start = now_ns();
      Tracer untraced(false);
      (void)mirror.handle(requests[i].line, untraced);
      slots[i].end = now_ns();
      std::lock_guard<std::mutex> lock(mutex);
      --in_flight;
      done.notify_all();
    });
    if (submitted != WorkerPool::Submit::Accepted) {
      ++result.queue_full;
      slots[i] = {};
      std::lock_guard<std::mutex> lock(mutex);
      --in_flight;
    }
  }
  pool.drain();
  const std::int64_t wall = now_ns() - t0;
  std::int64_t busy = 0;
  for (const Slot& slot : slots) {
    if (slot.submit == 0) continue;
    result.queue_wait_us.push_back(static_cast<double>(slot.start - slot.submit) / 1e3);
    busy += slot.end - slot.start;
  }
  result.busy_share = static_cast<double>(busy) /
                      (static_cast<double>(wall) * opts.threads);
  return result;
}

/// Exact work counts of one sequential pass through the service.
struct WorkCounts {
  std::uint64_t requests = 0, cells_computed = 0, cells_cached = 0,
                node_steps = 0, errors = 0;
};

/// Folds one service response into the counts.
void count_response(const serve::JsonValue& request,
                    const std::string& response, WorkCounts& work) {
  std::string error;
  const std::optional<serve::JsonValue> doc = serve::parse_json(response, error);
  const serve::JsonValue* ok = doc ? doc->find("ok") : nullptr;
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    ++work.errors;
    return;
  }
  const std::string& op = request.find("op")->as_string();
  const serve::JsonValue& result = *doc->find("result");
  if (op == "run") {
    if (doc->find("cached")->as_bool()) {
      ++work.cells_cached;
    } else {
      ++work.cells_computed;
      work.node_steps += node_count(request.find("topology")->as_string()) *
                         static_cast<std::uint64_t>(request.find("steps")->as_int());
    }
  } else if (op == "sweep") {
    const auto count = static_cast<std::uint64_t>(result.find("cell_count")->as_int());
    const auto cached = static_cast<std::uint64_t>(result.find("cached_cells")->as_int());
    work.cells_cached += cached;
    work.cells_computed += count - cached;
    if (cached == 0) {  // the benchmark sends sweeps uncached
      for (const serve::JsonValue& cell : result.find("cells")->as_array()) {
        work.node_steps += node_count(cell.find("topology")->as_string()) *
                           static_cast<std::uint64_t>(cell.find("steps")->as_int());
      }
    }
  }
}

/// Strips the timing field so mirror and service responses compare.
[[nodiscard]] std::string without_micros(const std::string& response) {
  const std::size_t at = response.find("\"micros\":");
  if (at == std::string::npos) return response;
  const std::size_t end = response.find(',', at);
  return response.substr(0, at) + response.substr(end);
}

int trace_main(const std::string& path, const TraceOptions& opts) {
  std::vector<std::string> warm;  ///< warm-up lines: run first, not measured
  std::vector<Request> requests;
  std::vector<serve::JsonValue> parsed;
  std::string replay_file;
  for (const std::string& line : read_lines(path)) {
    const std::size_t tab = line.find('\t');
    if (line.substr(0, tab) == "w") {
      warm.push_back(line.substr(tab + 1));
      continue;
    }
    Request request;
    request.due_ns = static_cast<std::int64_t>(to_u64(line.substr(0, tab))) * 1000;
    request.line = line.substr(tab + 1);
    std::string error;
    std::optional<serve::JsonValue> doc = serve::parse_json(request.line, error);
    if (!doc.has_value()) {
      std::fprintf(stderr, "perfbench_probe: bad request line: %s\n", error.c_str());
      return 2;
    }
    request.stats = doc->find("op")->as_string() == "stats";
    if (doc->find("op")->as_string() == "replay" && replay_file.empty()) {
      replay_file = doc->find("file")->as_string();
    }
    parsed.push_back(std::move(*doc));
    requests.push_back(std::move(request));
  }
  if (replay_file.empty()) replay_file = "tests/corpus/2e1aead424229a20.cvgc";

  serve::ServiceOptions service_options;
  service_options.threads = opts.threads;
  service_options.queue_capacity = opts.queue;
  service_options.cache_entries = opts.cache_entries;
  serve::Service service(service_options);

  // Pass S: the service itself, sequentially.
  for (const std::string& line : warm) (void)service.process_line(line);
  const serve::CacheStats warm_cache = service.cache_stats();
  WorkCounts work;
  std::vector<double> process_us;
  std::vector<std::string> service_responses;
  std::int64_t process_ns = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::int64_t t0 = now_ns();
    std::string response = service.process_line(requests[i].line);
    const std::int64_t dt = now_ns() - t0;
    process_ns += dt;
    process_us.push_back(static_cast<double>(dt) / 1e3);
    ++work.requests;
    count_response(parsed[i], response, work);
    service_responses.push_back(std::move(response));
  }
  serve::CacheStats service_cache = service.cache_stats();
  service_cache.hits -= warm_cache.hits;
  service_cache.spill_hits -= warm_cache.spill_hits;
  service_cache.misses -= warm_cache.misses;
  service_cache.insertions -= warm_cache.insertions;
  service_cache.evictions -= warm_cache.evictions;

  // Passes U and T: the mirror, untraced then traced.
  const auto mirror_pass = [&](Tracer& tracer, std::uint64_t* mismatches) {
    Mirror mirror(opts.cache_entries, &service);
    Tracer off(false);
    for (const std::string& line : warm) (void)mirror.handle(line, off);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      tracer.set_request(static_cast<std::uint32_t>(i));
      const std::string response = mirror.handle(requests[i].line, tracer);
      if (mismatches != nullptr && !requests[i].stats &&
          without_micros(response) != without_micros(service_responses[i])) {
        ++*mismatches;
      }
    }
    return std::make_pair(now_ns() - t0, mirror.counts());
  };
  // U and T alternate twice and each keeps its faster wall, so a slow
  // stretch of the machine does not land on one side only.
  std::int64_t wall_untraced = 0;
  std::int64_t wall_traced = 0;
  Tracer traced(true);
  std::uint64_t mismatches = 0;
  MirrorCounts counts;
  for (int round = 0; round < 2; ++round) {
    Tracer untraced(false);
    const std::int64_t u = mirror_pass(untraced, nullptr).first;
    wall_untraced = round == 0 ? u : std::min(wall_untraced, u);
    Tracer t(true);
    mismatches = 0;
    const auto [wall, c] = mirror_pass(t, &mismatches);
    wall_traced = round == 0 ? wall : std::min(wall_traced, wall);
    counts = c;
    traced = std::move(t);
  }

  // The calibration panel, traced.
  Tracer panel(true);
  MirrorCounts panel_counts;
  {
    Mirror mirror(opts.cache_entries, &service);
    std::uint32_t index = 0;
    for (const std::string& line : panel_lines(replay_file)) {
      panel.set_request(index++);
      (void)mirror.handle(line, panel);
    }
    panel_counts = mirror.counts();
  }

  // Pass P: the pool.
  const PoolResult pool = pool_pass(warm, requests, opts, service);

  const std::map<std::string, Aggregate> agg = traced.aggregates();
  const std::map<std::string, Aggregate> cal = panel.aggregates();
  const auto pick = [&](const std::string& name) -> const Aggregate& {
    static const Aggregate empty;
    const auto it = agg.find(name);
    if (it != agg.end() && it->second.count > 0) return it->second;
    const auto jt = cal.find(name);
    return jt != cal.end() ? jt->second : empty;
  };
  const auto mean = [&](const std::string& name, double scale) {
    const Aggregate& a = pick(name);
    return a.count == 0 ? 0.0
                        : static_cast<double>(a.total_ns) / scale /
                              static_cast<double>(a.count);
  };
  const auto median = [&](const std::string& name, double scale) {
    const Aggregate& a = pick(name);
    std::vector<double> values;
    for (const std::int64_t ns : a.durations) {
      values.push_back(static_cast<double>(ns) / scale);
    }
    return percentile(std::move(values), 0.5);
  };
  const auto per_work = [&](const std::string& name) {
    const Aggregate& a = pick(name);
    return a.work == 0 ? 0.0
                       : static_cast<double>(a.self_ns) /
                             static_cast<double>(a.work);
  };
  const MirrorCounts& fill = counts.lane_blocks > 0 ? counts : panel_counts;

  std::vector<std::pair<std::string, double>> metrics = {
      {"serve.job.parse_us", median("serve.job.parse", 1e3)},
      {"serve.job.format_us", median("serve.job.format", 1e3)},
      {"serve.cache.lookup_us", median("serve.cache.lookup", 1e3)},
      {"serve.cache.insert_us", median("serve.cache.insert", 1e3)},
      {"serve.service.process_us_p50", percentile(process_us, 0.5)},
      {"parallel.pool.queue_wait_us_p99", percentile(pool.queue_wait_us, 0.99)},
      {"parallel.pool.busy_share", pool.busy_share},
      {"parallel.pool.queue_full", static_cast<double>(pool.queue_full)},
      {"topology.build_us", median("topology.build", 1e3)},
      {"adversary.unroll_ms_per_block", mean("adversary.unroll", 1e6)},
      {"adversary.plan_ns_per_step", mean("adversary.plan.adaptive", 1.0)},
      {"sim.lanes.ns_per_lane_node_step", per_work("sim.lanes")},
      {"sim.lanes.lane_fill",
       static_cast<double>(fill.lanes) /
           static_cast<double>(fill.lane_blocks * kServeLaneWidth)},
      {"sim.scalar.ns_per_node_step", per_work("sim.scalar")},
      {"route.ns_per_node_step", per_work("route.sim")},
      {"route.traffic.plan_ns_per_step", mean("route.traffic.plan", 1.0)},
      {"corpus.load_us", median("corpus.load", 1e3)},
      {"corpus.replay_us", median("corpus.replay", 1e3)},
      {"trace.overhead_share",
       static_cast<double>(wall_traced - wall_untraced) /
           static_cast<double>(wall_untraced)},
      {"trace.coverage_share", static_cast<double>(traced.layer_ns()) /
                                   static_cast<double>(process_ns)},
      {"work.requests_attempted", static_cast<double>(work.requests)},
      {"work.cells_computed", static_cast<double>(work.cells_computed)},
      {"work.cells_cached", static_cast<double>(work.cells_cached)},
      {"work.node_steps", static_cast<double>(work.node_steps)},
      {"work.cache_hits",
       static_cast<double>(service_cache.hits + service_cache.spill_hits)},
      {"work.cache_misses", static_cast<double>(service_cache.misses)},
      {"work.cache_insertions", static_cast<double>(service_cache.insertions)},
      {"work.cache_evictions", static_cast<double>(service_cache.evictions)},
  };

  if (!opts.spans_path.empty()) {
    std::ofstream out(opts.spans_path);
    out << '[';
    bool first = true;
    traced.write(out, "workload", first);
    panel.write(out, "panel", first);
    out << "\n]\n";
  }

  // Layer self times, for the human-readable report.
  std::ostringstream layers;
  bool first = true;
  for (const auto& [name, a] : agg) {
    layers << (first ? "" : ",") << serve::json_quote(name) << ":{\"count\":"
           << a.count << ",\"total_ms\":" << static_cast<double>(a.total_ns) / 1e6
           << ",\"self_ms\":" << static_cast<double>(a.self_ns) / 1e6 << '}';
    first = false;
  }
  std::printf("{\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s:%.17g", i == 0 ? "" : ",",
                serve::json_quote(metrics[i].first).c_str(), metrics[i].second);
  }
  std::printf("},\"errors\":%llu,\"mirror_mismatches\":%llu,\"layers\":{%s}}\n",
              static_cast<unsigned long long>(work.errors + counts.errors),
              static_cast<unsigned long long>(mismatches),
              layers.str().c_str());
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_probe reference <cells.tsv> [--threads=N]\n"
               "       perfbench_probe trace <requests.tsv> --spans=<file> "
               "[--threads=N] [--queue=N] [--cache-entries=N] [--closed=C]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];
  TraceOptions opts;
  unsigned reference_threads = 4;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.starts_with("--threads=")) {
      opts.threads = static_cast<unsigned>(to_u64(value("--threads=")));
      reference_threads = opts.threads;
    } else if (arg.starts_with("--queue=")) {
      opts.queue = to_u64(value("--queue="));
    } else if (arg.starts_with("--cache-entries=")) {
      opts.cache_entries = to_u64(value("--cache-entries="));
    } else if (arg.starts_with("--closed=")) {
      opts.closed = to_u64(value("--closed="));
    } else if (arg.starts_with("--spans=")) {
      opts.spans_path = std::string(value("--spans="));
    } else {
      usage();
    }
  }
  if (mode == "reference") return reference_main(path, reference_threads);
  if (mode == "trace") return trace_main(path, opts);
  usage();
}
