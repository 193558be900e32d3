#include "src/serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/random.h"

namespace ccam {
namespace serve {

namespace {

/// Zipf(theta) sampler over ranks [0, n): P(rank i) ~ 1/(i+1)^theta.
/// Precomputes the CDF once; sampling is a binary search.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (size_t i = 0; i < n; ++i) cdf_[i] /= sum;
  }

  size_t Sample(Random* rng) const {
    double u = rng->NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Simulated end-user population: request.user is sampled from it.
constexpr uint64_t kUsers = 1000000;
/// Route length (nodes) for route-eval walks; OD searches and aggregates
/// derive from the same walks.
constexpr size_t kRouteHops = 8;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<ServeRequest> BuildRequestPool(NetworkFile* file,
                                           const LoadgenOptions& options) {
  std::vector<ServeRequest> pool;
  const NodePageMap& page_of = file->PageMap();
  if (page_of.empty() || options.pool_size == 0) return pool;

  // Invert node->page and pull the stored adjacency once, so walk
  // generation below is pure in-memory work.
  std::unordered_map<PageId, std::vector<NodeId>> nodes_on_page;
  std::unordered_map<NodeId, std::vector<NodeId>> successors;
  std::vector<PageId> pages;
  for (const auto& [node, page] : page_of) {
    auto [it, inserted] = nodes_on_page.try_emplace(page);
    if (inserted) pages.push_back(page);
    it->second.push_back(node);
    auto recs = file->GetSuccessors(node);
    if (recs.ok()) {
      auto& succ = successors[node];
      succ.reserve(recs.value().size());
      for (const NodeRecord& rec : recs.value()) succ.push_back(rec.id);
    }
  }
  // Deterministic iteration order regardless of hash-map layout.
  std::sort(pages.begin(), pages.end());
  for (auto& [page, nodes] : nodes_on_page) {
    (void)page;
    std::sort(nodes.begin(), nodes.end());
  }

  Random rng(options.seed);
  // Shuffle which pages are "hot" so the skew does not trivially follow
  // page-id order (which correlates with creation order).
  rng.Shuffle(&pages);
  ZipfSampler zipf(pages.size(), options.zipf_theta);

  const bool has_hierarchy = file->HasHierarchy();
  const double w_route = std::max(0.0, options.w_route_eval);
  const double w_astar = std::max(0.0, options.w_astar);
  const double w_agg = std::max(0.0, options.w_aggregate);
  const double w_hier = has_hierarchy ? std::max(0.0, options.w_hierarchy) : 0;
  double w_total = w_route + w_astar + w_agg + w_hier;
  if (w_total <= 0.0) w_total = 1.0;

  pool.reserve(options.pool_size);
  for (size_t i = 0; i < options.pool_size; ++i) {
    const std::vector<NodeId>& nodes = nodes_on_page[pages[zipf.Sample(&rng)]];
    NodeId origin = nodes[rng.Uniform(static_cast<uint32_t>(nodes.size()))];

    // Random walk from the origin (no immediate backtracking when another
    // successor exists); may end early at a dead end.
    std::vector<NodeId> walk{origin};
    NodeId prev = kInvalidNodeId;
    while (walk.size() < kRouteHops + 1) {
      const std::vector<NodeId>& succ = successors[walk.back()];
      if (succ.empty()) break;
      NodeId next = succ[rng.Uniform(static_cast<uint32_t>(succ.size()))];
      if (next == prev && succ.size() > 1) {
        next = succ[rng.Uniform(static_cast<uint32_t>(succ.size()))];
        if (next == prev) break;  // twice unlucky: accept the short walk
      }
      prev = walk.back();
      walk.push_back(next);
    }

    ServeRequest request;
    request.tenant = rng.Uniform(options.tenants > 0 ? options.tenants : 1);
    request.user =
        (static_cast<uint64_t>(rng.Next()) << 32 | rng.Next()) % kUsers;
    double pick = rng.NextDouble() * w_total;
    if ((pick -= w_route) < 0.0 || walk.size() < 2) {
      request.op = ServeOp::kRouteEval;
      request.route.nodes = walk;
    } else if ((pick -= w_astar) < 0.0) {
      request.op = ServeOp::kAStar;
      request.route.nodes = {walk.front(), walk.back()};
    } else if ((pick -= w_agg) < 0.0) {
      request.op = ServeOp::kAggregate;
      request.unit.name = "unit-" + std::to_string(i);
      for (size_t k = 0; k + 1 < walk.size(); ++k) {
        request.unit.edges.emplace_back(walk[k], walk[k + 1]);
      }
    } else {
      request.op = ServeOp::kHierarchy;
      request.route.nodes = {walk.front(), walk.back()};
    }
    pool.push_back(std::move(request));
  }
  return pool;
}

LoadReport RunLoad(QueryService* service, NetworkFile* file,
                   const std::vector<ServeRequest>& pool,
                   const LoadgenOptions& options) {
  LoadReport report;
  if (pool.empty()) return report;

  const IoStats disk_before = file->DataIoStats();
  const uint64_t hits_before = file->buffer_pool()->hits();
  const uint64_t misses_before = file->buffer_pool()->misses();
  const IoStats session_before = service->TotalSessionIoStats();

  struct Issued {
    ServeTicketPtr ticket;
    uint64_t due_us;  // scheduled arrival time: latency is measured from it
  };
  std::vector<Issued> issued;
  issued.reserve(static_cast<size_t>(options.offered_qps *
                                     options.duration_sec * 1.2) +
                 16);

  // Open loop: exponential inter-arrival times at the offered rate; when
  // the submitter falls behind schedule it submits immediately rather than
  // thinning the arrivals (the backlog is the service's problem).
  Random rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  const double rate =
      options.offered_qps > 0.0 ? options.offered_qps : 1000.0;
  const uint64_t start_us = NowMicros();
  const uint64_t end_us =
      start_us + static_cast<uint64_t>(options.duration_sec * 1e6);
  double next_us = static_cast<double>(start_us);
  size_t cursor = 0;
  for (;;) {
    const uint64_t now = NowMicros();
    if (now >= end_us) break;
    if (static_cast<double>(now) < next_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<uint64_t>(next_us - static_cast<double>(now))));
    }
    if (NowMicros() >= end_us) break;
    issued.push_back({service->Submit(pool[cursor % pool.size()]),
                      static_cast<uint64_t>(next_us)});
    ++cursor;
    double u = rng.NextDouble();
    if (u <= 0.0) u = 1e-12;
    next_us += -std::log(u) * 1e6 / rate;
  }

  // Wait out every ticket, then measure exact end-to-end latencies from
  // each request's scheduled arrival to its service-stamped completion
  // (same steady clock). Stamping from the due time, not from after the
  // submitter's sleep, keeps a late submitter's queueing delay in the
  // latency instead of hiding it (coordinated omission).
  std::vector<uint64_t> latencies;
  latencies.reserve(issued.size());
  uint64_t last_done_us = start_us;
  for (const Issued& entry : issued) {
    const ServeResponse& response = entry.ticket->Wait();
    if (response.status.IsOverloaded()) {
      ++report.rejected;
      continue;
    }
    if (!response.status.ok()) {
      ++report.failed;
      continue;
    }
    ++report.completed;
    latencies.push_back(
        response.done_us > entry.due_us ? response.done_us - entry.due_us : 0);
    if (response.done_us > last_done_us) last_done_us = response.done_us;
  }

  report.submitted = issued.size();
  report.elapsed_sec =
      static_cast<double>(last_done_us - start_us) * 1e-6;
  if (report.elapsed_sec <= 0.0) report.elapsed_sec = 1e-9;
  report.qps = static_cast<double>(report.completed) / report.elapsed_sec;
  report.reject_rate = report.submitted == 0
                           ? 0.0
                           : static_cast<double>(report.rejected) /
                                 static_cast<double>(report.submitted);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
      size_t idx = static_cast<size_t>(p * static_cast<double>(
                                               latencies.size() - 1));
      return latencies[idx];
    };
    report.p50_us = pct(0.50);
    report.p95_us = pct(0.95);
    report.p99_us = pct(0.99);
  }

  const IoStats disk_after = file->DataIoStats();
  const IoStats session_after = service->TotalSessionIoStats();
  report.disk_reads = (disk_after - disk_before).reads;
  report.session_reads = (session_after - session_before).reads;
  report.conserved = report.disk_reads == report.session_reads;
  const uint64_t hits = file->buffer_pool()->hits() - hits_before;
  const uint64_t misses = file->buffer_pool()->misses() - misses_before;
  report.hit_rate = hits + misses == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(hits + misses);
  return report;
}

}  // namespace serve
}  // namespace ccam
