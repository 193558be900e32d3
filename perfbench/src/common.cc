#include "perfbench/src/common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/graph/generator.h"
#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"

namespace perfbench {

using ccam::NodeId;
using ccam::serve::ServeOp;
using ccam::serve::ServeRequest;

int HostCores() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// --- Report ------------------------------------------------------------------

CpuRotation::CpuRotation(uint64_t period_ns) {
  const pid_t tid = gettid();
  CPU_ZERO(&original_);
  if (sched_getaffinity(tid, sizeof(original_), &original_) != 0) return;
  restore_ = true;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  mover_ = std::thread([this, tid, cpus, period_ns] {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t next = 0; !stop_; next = (next + 1) % cpus.size()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[next], &one);
      (void)sched_setaffinity(tid, sizeof(one), &one);
      cv_.wait_for(lock, std::chrono::nanoseconds(period_ns),
                   [this] { return stop_; });
    }
  });
}

CpuRotation::~CpuRotation() {
  if (mover_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    mover_.join();
  }
  if (restore_) (void)sched_setaffinity(gettid(), sizeof(original_), &original_);
}

void LogFailed(const std::string& what, const ccam::Status& status) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1, std::memory_order_relaxed) < kLoggedFailures) {
    std::fprintf(stderr, "perfbench: failed %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  problems_.push_back(why);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const std::vector<MetricSpec>& specs) {
  for (const MetricSpec& m : specs) {
    auto it = metrics_.find(m.name);
    if (it == metrics_.end()) {
      Fail("metric not produced: " + m.name);
    } else if (it->second.second != m.unit) {
      Fail("metric " + m.name + " measured in " + it->second.second +
           ", declared in " + m.unit);
    }
  }
  std::string stamp = "{";
  for (const auto& [k, v] : stamp_) {
    if (stamp.size() > 1) stamp += ", ";
    stamp += JsonString(k) + ": " + JsonString(v);
  }
  stamp += "}";
  std::printf("stamp %s\n", stamp.c_str());
  for (const std::string& p : problems_) {
    std::printf("problem %s\n", p.c_str());
  }

  std::string metrics = "{";
  for (const MetricSpec& m : specs) {
    auto it = metrics_.find(m.name);
    if (it == metrics_.end()) continue;
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " +
               JsonNumber(it->second.first) +
               ", \"unit\": " + JsonString(it->second.second) + "}";
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(
          outcomes.attempted(), 1)),
      static_cast<unsigned long long>(outcomes.failed()), metrics.c_str());
  std::fflush(stdout);
}

// --- Inputs ------------------------------------------------------------------

ccam::Network MakeMap() {
  ccam::RoadMapOptions gen;
  gen.rows = kMapSide;
  gen.cols = kMapSide;
  gen.nodes_to_remove = kMapSide / 4;
  gen.seed = kMapSeed;
  return ccam::GenerateRoadMap(gen);
}

std::vector<NodeId> LargestScc(const ccam::Network& net) {
  // Iterative Tarjan over the successor lists.
  const std::vector<NodeId> ids = net.NodeIds();
  std::unordered_map<NodeId, uint32_t> index_of;
  index_of.reserve(ids.size());
  for (uint32_t i = 0; i < ids.size(); ++i) index_of[ids[i]] = i;
  const uint32_t n = static_cast<uint32_t>(ids.size());
  constexpr uint32_t kUnvisited = UINT32_MAX;
  std::vector<uint32_t> index(n, kUnvisited), low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<uint32_t> stack;
  std::vector<uint32_t> best;
  uint32_t next_index = 0;
  struct Frame {
    uint32_t v;
    size_t edge;
  };
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    std::vector<Frame> call{{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!call.empty()) {
      Frame& f = call.back();
      const auto& succ = net.node(ids[f.v]).succ;
      if (f.edge < succ.size()) {
        const uint32_t w = index_of.at(succ[f.edge++].node);
        if (index[w] == kUnvisited) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
        continue;
      }
      const uint32_t v = f.v;
      call.pop_back();
      if (!call.empty()) low[call.back().v] = std::min(low[call.back().v], low[v]);
      if (low[v] == index[v]) {
        std::vector<uint32_t> comp;
        uint32_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp.push_back(w);
        } while (w != v);
        if (comp.size() > best.size()) best = std::move(comp);
      }
    }
  }
  std::vector<NodeId> out;
  out.reserve(best.size());
  for (uint32_t i : best) out.push_back(ids[i]);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// A random walk of `hops` edges from `origin` over `net`, never leaving
/// `inside` and avoiding immediate backtracking when another successor
/// exists.
std::vector<NodeId> RandomWalk(const ccam::Network& net,
                               const std::vector<char>& inside, NodeId origin,
                               int hops, ccam::Random* rng) {
  std::vector<NodeId> walk{origin};
  NodeId prev = ccam::kInvalidNodeId;
  std::vector<NodeId> options;
  while (walk.size() < static_cast<size_t>(hops) + 1) {
    options.clear();
    for (const ccam::AdjEntry& e : net.node(walk.back()).succ) {
      if (e.node < inside.size() && inside[e.node]) options.push_back(e.node);
    }
    if (options.empty()) break;
    if (options.size() > 1) {
      options.erase(std::remove(options.begin(), options.end(), prev),
                    options.end());
    }
    prev = walk.back();
    walk.push_back(options[rng->Uniform(static_cast<uint32_t>(options.size()))]);
  }
  return walk;
}

/// Zipf(theta) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(ccam::Random* rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<ServeRequest> MakeRequests(const ccam::Network& net,
                                       const RequestOptions& options,
                                       uint64_t seed) {
  const std::vector<NodeId> scc = LargestScc(net);
  NodeId max_id = 0;
  for (NodeId id : scc) max_id = std::max(max_id, id);
  std::vector<char> inside(static_cast<size_t>(max_id) + 1, 0);
  for (NodeId id : scc) inside[id] = 1;

  ccam::Random rng(seed);
  // Page-sized spatial blocks, in a seeded random popularity order.
  std::vector<std::vector<NodeId>> blocks;
  if (options.zipf_theta > 0.0) {
    std::map<std::pair<long, long>, std::vector<NodeId>> by_block;
    const double cell = 100.0 * kBlockSide;  // generator grid spacing 100
    for (NodeId id : scc) {
      const auto& node = net.node(id);
      by_block[{std::lround(std::floor(node.x / cell)),
                std::lround(std::floor(node.y / cell))}]
          .push_back(id);
    }
    for (auto& [key, nodes] : by_block) blocks.push_back(std::move(nodes));
    ccam::Random popularity(kPopularitySeed);
    popularity.Shuffle(&blocks);
  }
  Zipf zipf(std::max<size_t>(blocks.size(), 1), options.zipf_theta);

  // Exact operation quotas in a seeded order: a run's cost then does not
  // swing with how many of its requests happened to draw the costly op.
  const Mix& m = options.mix;
  const double total = m.route_eval + m.astar + m.aggregate + m.ch;
  const std::pair<ServeOp, double> weights[] = {
      {ServeOp::kRouteEval, m.route_eval},
      {ServeOp::kAStar, m.astar},
      {ServeOp::kAggregate, m.aggregate},
      {ServeOp::kHierarchy, m.ch}};
  std::vector<ServeOp> ops;
  for (const auto& [op, w] : weights) {
    const size_t n = static_cast<size_t>(
        std::llround(static_cast<double>(options.count) * w / total));
    ops.insert(ops.end(), std::min(n, options.count - ops.size()), op);
  }
  ops.resize(options.count, ServeOp::kRouteEval);
  rng.Shuffle(&ops);
  std::vector<ServeRequest> out;
  out.reserve(options.count);
  for (size_t i = 0; i < options.count; ++i) {
    NodeId origin;
    if (!blocks.empty()) {
      const auto& b = blocks[zipf.Sample(&rng)];
      origin = b[rng.Uniform(static_cast<uint32_t>(b.size()))];
    } else {
      origin = scc[rng.Uniform(static_cast<uint32_t>(scc.size()))];
    }
    ServeRequest r;
    r.tenant = rng.Uniform(std::max<uint32_t>(options.tenants, 1));
    r.user = rng.Next();
    r.op = ops[i];
    if (r.op == ServeOp::kRouteEval) {
      r.route.nodes = RandomWalk(net, inside, origin, options.walk_hops, &rng);
    } else if (r.op == ServeOp::kAggregate) {
      const auto walk =
          RandomWalk(net, inside, origin, options.walk_hops, &rng);
      r.unit.name = "unit-" + std::to_string(i);
      for (size_t k = 0; k + 1 < walk.size(); ++k) {
        r.unit.edges.emplace_back(walk[k], walk[k + 1]);
      }
    } else {
      NodeId dst = origin;
      if (options.uniform_od) {
        const auto& o = net.node(origin);
        for (;;) {
          dst = scc[rng.Uniform(static_cast<uint32_t>(scc.size()))];
          const auto& d = net.node(dst);
          const double dist = std::hypot(d.x - o.x, d.y - o.y);
          if (dst != origin && dist >= options.od_min &&
              dist <= options.od_max) {
            break;
          }
        }
      } else {
        dst = RandomWalk(net, inside, origin, options.walk_hops, &rng).back();
      }
      r.route.nodes = {origin, dst};
    }
    out.push_back(std::move(r));
  }
  return out;
}

// --- Oracle ------------------------------------------------------------------

const char* const kOpNames[4] = {"route_eval", "astar", "ch", "aggregate"};

int OpIndex(ServeOp op) {
  switch (op) {
    case ServeOp::kRouteEval:
      return 0;
    case ServeOp::kAStar:
      return 1;
    case ServeOp::kHierarchy:
      return 2;
    case ServeOp::kAggregate:
      return 3;
  }
  return 0;
}

bool SameAnswer(const Answer& a, const Answer& b, double rel_tol) {
  const double scale = std::max(std::fabs(a.cost), std::fabs(b.cost));
  const bool cost_ok = a.cost == b.cost ||
                       std::fabs(a.cost - b.cost) <= rel_tol * scale;
  return a.status.code() == b.status.code() && cost_ok &&
         a.num_edges == b.num_edges && a.path == b.path;
}

Answer FromResponse(const ccam::serve::ServeResponse& r) {
  return Answer{r.status, r.cost, r.num_edges, r.path};
}

Answer ExecuteDirect(ccam::AccessMethod* am, const ServeRequest& request,
                     CallDetail* detail) {
  Answer a;
  CallDetail d;
  auto from_search = [&](ccam::Result<ccam::SearchResult> r) {
    if (!r.ok()) {
      a.status = r.status();
      return;
    }
    a.cost = r.value().cost;
    a.num_edges = r.value().path.empty() ? 0 : r.value().path.size() - 1;
    a.path = std::move(r.value().path);
    d.expanded = r.value().nodes_expanded;
    d.page_accesses = r.value().page_accesses;
  };
  switch (request.op) {
    case ServeOp::kRouteEval: {
      auto r = ccam::EvaluateRoute(am, request.route);
      if (r.ok()) {
        a.cost = r.value().total_cost;
        a.num_edges = r.value().num_edges;
        d.page_accesses = r.value().page_accesses;
      } else {
        a.status = r.status();
      }
      break;
    }
    case ServeOp::kAStar:
      from_search(ccam::ShortestPathAStar(am, request.route.nodes.front(),
                                          request.route.nodes.back()));
      break;
    case ServeOp::kHierarchy:
      from_search(ccam::ShortestPathCH(am, request.route.nodes.front(),
                                       request.route.nodes.back()));
      break;
    case ServeOp::kAggregate: {
      auto r = ccam::AggregateRouteUnit(am, request.unit);
      if (r.ok()) {
        a.cost = r.value().total_edge_cost;
        a.num_edges = r.value().num_edges;
        d.page_accesses = r.value().page_accesses;
      } else {
        a.status = r.status();
      }
      break;
    }
  }
  if (detail != nullptr) *detail = d;
  return a;
}

// --- Set-up ------------------------------------------------------------------

std::unique_ptr<ccam::Ccam> OpenImage(const std::string& path,
                                      const ccam::AccessMethodOptions& o) {
  ccam::AccessMethodOptions with_overlay = o;
  with_overlay.hierarchy_overlay = true;  // reattach the saved CH sidecar
  auto file = std::make_unique<ccam::Ccam>(with_overlay,
                                           ccam::CcamCreateMode::kStatic);
  if (!file->OpenImage(path).ok()) return nullptr;
  return file;
}

BuiltFile BuildServingFile(const ccam::Network& net,
                           const ccam::AccessMethodOptions& open_options,
                           const std::string& image_path, Report* report) {
  BuiltFile built;
  built.image_path = image_path;
  std::vector<double> create, overlay, open, total;
  const CpuRotation rotation(kRotateNs);  // set-up is single-threaded
  for (int rep = 0; rep < kSetupReps; ++rep) {
    built.file.reset();
    ccam::AccessMethodOptions o;
    o.page_size = kPageSize;
    o.num_threads = 1;
    SetupTimes t;
    auto t0 = std::chrono::steady_clock::now();
    ccam::Ccam fresh(o, ccam::CcamCreateMode::kStatic);
    ccam::Status st = fresh.Create(net);
    t.create_s = SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    if (st.ok()) st = fresh.BuildHierarchyOverlay();
    t.overlay_build_s = SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    if (st.ok()) st = fresh.SaveImage(image_path);
    if (st.ok()) built.file = OpenImage(image_path, open_options);
    t.open_s = SecondsSince(t0);
    if (!st.ok() || built.file == nullptr || !built.file->HasHierarchy()) {
      report->Fail("set-up: " + (st.ok() ? std::string("open failed")
                                        : st.ToString()));
      built.file.reset();
      return built;
    }
    create.push_back(t.create_s);
    overlay.push_back(t.overlay_build_s);
    open.push_back(t.open_s);
    total.push_back(t.total());
  }
  built.median = {Median(create), Median(overlay), Median(open)};
  built.setup_s = Median(total);
  return built;
}

// --- Tracing -----------------------------------------------------------------

const char* const TimedAccess::kCallNames[TimedAccess::kCalls] = {
    "core.find", "core.get_successors", "core.get_a_successor",
    "core.hierarchy_node"};

uint64_t TimedAccess::total_ns() const {
  uint64_t n = 0;
  for (uint64_t c : ns_) n += c;
  return n;
}

void WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  uint64_t epoch = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) epoch = std::min(epoch, s.start_ns);
  }
  std::fprintf(out, "{\"traceEvents\": [\n");
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"request\": %llu, \"parent\": %lld}}",
                   first ? "" : ",\n", s.name, tid,
                   static_cast<double>(s.start_ns - epoch) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

void StealLog::Sample() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field = 0, steal = 0;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && (in >> field); ++i) steal = field;
  samples_.emplace_back(NowNs(), steal);
}

double StealLog::Between(uint64_t t0_ns, uint64_t t1_ns) const {
  if (samples_.empty()) return 0.0;
  // Last sample at or before t0, first sample at or after t1.
  auto after = std::lower_bound(
      samples_.begin(), samples_.end(), std::make_pair(t1_ns, uint64_t{0}));
  if (after == samples_.end()) --after;
  auto before = std::upper_bound(samples_.begin(), samples_.end(),
                                 std::make_pair(t0_ns, UINT64_MAX));
  if (before != samples_.begin()) --before;
  return after->second > before->second
             ? static_cast<double>(after->second - before->second)
             : 0.0;
}

double StealLog::Total() const {
  return samples_.empty() ? 0.0
                          : static_cast<double>(samples_.back().second -
                                                samples_.front().second);
}

StealSampler::StealSampler(StealLog* log) : log_(log) {
  log_->Sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStealSampleMs));
      log_->Sample();
    }
  });
}

StealSampler::~StealSampler() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

LatencySummary Summarize(const std::vector<double>& in_time_order,
                         const std::vector<uint64_t>& times_ns,
                         const StealLog& steal) {
  LatencySummary s;
  s.n = in_time_order.size();
  const auto windows =
      CountWindows(s.n, MinSamplesFor(0.99), kMaxWindows);
  std::vector<double> stolen;
  for (const auto& [b, e] : windows) {
    stolen.push_back(e > b && e <= times_ns.size()
                         ? steal.Between(times_ns[b], times_ns[e - 1])
                         : 0.0);
  }
  std::vector<double> kept;
  for (size_t w : QuietIndices(stolen)) {
    kept.insert(kept.end(), in_time_order.begin() + windows[w].first,
                in_time_order.begin() + windows[w].second);
  }
  std::sort(kept.begin(), kept.end());
  s.p50 = Percentile(kept, 0.50);
  s.p99 = Percentile(kept, 0.99);
  return s;
}

double QuietRate(const std::vector<uint64_t>& done_ns, uint64_t start_ns,
                 uint64_t end_ns, const StealLog& steal) {
  const std::vector<double> rates =
      WindowRates(done_ns, start_ns, end_ns, kRateWindows);
  std::vector<double> stolen;
  for (size_t w = 0; w < rates.size(); ++w) {
    const uint64_t span = end_ns - start_ns;
    stolen.push_back(steal.Between(start_ns + span * w / rates.size(),
                                   start_ns + span * (w + 1) / rates.size()));
  }
  return QuietMean(rates, stolen);
}

}  // namespace perfbench
