#include "src/shard/sharded_network_file.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "src/partition/recursive_bisection.h"

namespace ccam {
namespace {

/// splitmix64 finalizer (same idiom as the clustering pipeline's
/// content-derived seeds).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed derived from the subproblem's node content, never from recursion
/// depth or scheduling, so the coarse split is a pure function of the
/// input for any thread count.
uint64_t SubsetSeed(uint64_t base, const std::vector<NodeId>& nodes) {
  uint64_t h = Mix64(base ^ static_cast<uint64_t>(nodes.size()));
  for (NodeId id : nodes) h = Mix64(h ^ id);
  return h;
}

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

ShardedNetworkFile::ShardedNetworkFile(const ShardedOptions& options)
    : options_(options), halo_counts_(options.num_shards, 0) {}

ShardedNetworkFile::~ShardedNetworkFile() = default;

Status ShardedNetworkFile::Create(const Network& network) {
  const uint32_t n = options_.num_shards;
  if (!IsPowerOfTwo(n) || n > 256) {
    return Status::InvalidArgument(
        "num_shards must be a power of two in [1, 256], got " +
        std::to_string(n));
  }
  if (options_.am.hierarchy_overlay) {
    return Status::InvalidArgument(
        "hierarchy_overlay is not supported on sharded files: a per-shard "
        "contraction hierarchy over a subgraph is not globally correct");
  }
  if (network.NumNodes() < n) {
    return Status::InvalidArgument("fewer nodes than shards");
  }

  std::vector<std::vector<NodeId>> owned;
  if (n == 1) {
    owned.push_back(network.NodeIds());
  } else {
    CCAM_RETURN_NOT_OK(CoarsePartition(network, &owned));
  }
  return BuildShards(network, owned);
}

Status ShardedNetworkFile::CoarsePartition(
    const Network& network, std::vector<std::vector<NodeId>>* owned) const {
  // Recursive bisection down to num_shards leaves, emitted left-to-right.
  // Sides are re-sorted ascending before recursing so the subproblem (and
  // its content-derived seed) never depends on partitioner output order.
  struct Frame {
    std::vector<NodeId> ids;
    uint32_t parts;
  };
  std::vector<Frame> stack;
  stack.push_back({network.NodeIds(), options_.num_shards});
  std::vector<std::vector<NodeId>> leaves;
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.parts == 1) {
      leaves.push_back(std::move(f.ids));
      continue;
    }
    if (f.ids.size() < f.parts) {
      return Status::InvalidArgument("coarse split ran out of nodes");
    }
    PartitionGraph graph = PartitionGraph::FromNetwork(
        network, f.ids, options_.am.use_access_weights,
        SlottedPage::kSlotOverhead);
    const size_t total = graph.TotalSize();
    Bisection cut =
        TwoWayPartition(graph, total * 2 / 5, options_.am.partitioner,
                        SubsetSeed(options_.am.seed, f.ids));
    std::vector<NodeId> a, b;
    for (size_t i = 0; i < graph.ids.size(); ++i) {
      (cut.side[i] ? b : a).push_back(graph.ids[i]);
    }
    if (a.empty() || b.empty()) {
      return Status::InvalidArgument(
          "coarse shard bisection produced an empty side");
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    // Right side pushed first: the stack pops the left side next, keeping
    // leaf emission in left-to-right recursion order.
    stack.push_back({std::move(b), f.parts / 2});
    stack.push_back({std::move(a), f.parts / 2});
  }
  *owned = std::move(leaves);
  return Status::OK();
}

Status ShardedNetworkFile::BuildShards(
    const Network& network, const std::vector<std::vector<NodeId>>& owned) {
  const uint32_t n = options_.num_shards;
  std::unordered_map<NodeId, uint32_t> owner;
  for (uint32_t s = 0; s < n; ++s) {
    for (NodeId id : owned[s]) owner[id] = s;
  }

  cut_edges_ = 0;
  for (NodeId u : network.NodeIds()) {
    for (const AdjEntry& e : network.node(u).succ) {
      auto it = owner.find(e.node);
      if (it != owner.end() && it->second != owner[u]) ++cut_edges_;
    }
  }

  // The per-shard clustering runs with exactly the options Ccam::Create
  // uses, so a 1-shard file lays out byte-identically to the unsharded
  // baseline (Create() even takes that path literally, below).
  ClusterOptions copts;
  copts.page_capacity = options_.am.page_size - SlottedPage::kHeaderSize;
  copts.per_record_overhead = SlottedPage::kSlotOverhead;
  copts.algorithm = options_.am.partitioner;
  copts.use_access_weights = options_.am.use_access_weights;
  copts.seed = options_.am.seed;
  copts.num_threads = options_.am.num_threads;

  shards_.clear();
  halo_counts_.assign(n, 0);
  for (uint32_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<ShardFile>(options_.am);
    if (n == 1) {
      // The literal unsharded create: same clustering call, same seed,
      // same build path — bit-identical file.
      CCAM_RETURN_NOT_OK(shard->Create(network));
      halo_counts_[s] = 0;
    } else {
      std::unordered_set<NodeId> mine(owned[s].begin(), owned[s].end());
      std::vector<NodeId> halo;
      std::unordered_set<NodeId> halo_seen;
      for (NodeId u : owned[s]) {
        for (NodeId v : network.Neighbors(u)) {
          if (mine.count(v) == 0 && halo_seen.insert(v).second) {
            halo.push_back(v);
          }
        }
      }
      std::vector<NodeId> subset = owned[s];
      subset.insert(subset.end(), halo.begin(), halo.end());
      std::sort(subset.begin(), subset.end());
      std::vector<std::vector<NodeId>> pages;
      CCAM_ASSIGN_OR_RETURN(pages,
                            ClusterNodesIntoPages(network, subset, copts));
      CCAM_RETURN_NOT_OK(shard->CreateShard(network, pages));
      halo_counts_[s] = halo.size();
    }
    if (metrics_ != nullptr) shard->SetMetrics(metrics_);
    shards_.push_back(std::move(shard));
  }

  router_ = ShardRouter(n, std::move(owner));
  if (metrics_ != nullptr) router_.SetMetrics(metrics_);
  RebuildComposedPageMap();
  return Status::OK();
}

void ShardedNetworkFile::RebuildComposedPageMap() {
  page_of_.clear();
  page_of_.reserve(router_.owner_map().size());
  for (const auto& kv : router_.owner_map()) {
    const NodePageMap& local = shards_[kv.second]->PageMap();
    auto it = local.find(kv.first);
    if (it != local.end()) {
      page_of_[kv.first] = it->second * options_.num_shards + kv.second;
    }
  }
}

void ShardedNetworkFile::CountHalo() {
  std::vector<size_t> owned_count(options_.num_shards, 0);
  for (const auto& kv : router_.owner_map()) ++owned_count[kv.second];
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    halo_counts_[s] = shards_[s]->PageMap().size() - owned_count[s];
  }
}

Status ShardedNetworkFile::SaveImage(const std::string& path) {
  if (shards_.empty()) return Status::InvalidArgument("no shards to save");
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    CCAM_RETURN_NOT_OK(
        shards_[s]->SaveImage(path + ".shard" + std::to_string(s)));
  }
  // Deterministic manifest bytes (owners ascending), written to a temp
  // file and renamed so a crash never leaves a torn manifest beside
  // intact shard images.
  std::vector<std::pair<NodeId, uint32_t>> owners(
      router_.owner_map().begin(), router_.owner_map().end());
  std::sort(owners.begin(), owners.end());
  const std::string final_path = path + ".shardmap";
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + tmp_path);
    out << "ccam-shardmap 1\n";
    out << "shards " << options_.num_shards << "\n";
    out << "cut_edges " << cut_edges_ << "\n";
    out << "owners " << owners.size() << "\n";
    for (const auto& kv : owners) out << kv.first << " " << kv.second << "\n";
    out.flush();
    if (!out) return Status::IOError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::IOError("cannot publish " + final_path);
  }
  return Status::OK();
}

Status ShardedNetworkFile::OpenImage(const std::string& path) {
  std::ifstream in(path + ".shardmap");
  if (!in) return Status::IOError("cannot open " + path + ".shardmap");
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "ccam-shardmap" || version != 1) {
    return Status::Corruption("bad shardmap header in " + path);
  }
  std::string key;
  uint32_t saved_shards = 0;
  uint64_t saved_cut = 0;
  size_t num_owners = 0;
  in >> key >> saved_shards;
  if (key != "shards") return Status::Corruption("shardmap: missing shards");
  in >> key >> saved_cut;
  if (key != "cut_edges") {
    return Status::Corruption("shardmap: missing cut_edges");
  }
  in >> key >> num_owners;
  if (key != "owners") return Status::Corruption("shardmap: missing owners");
  if (saved_shards != options_.num_shards) {
    return Status::InvalidArgument(
        "shardmap has " + std::to_string(saved_shards) +
        " shards but options ask for " + std::to_string(options_.num_shards));
  }
  std::unordered_map<NodeId, uint32_t> owner;
  owner.reserve(num_owners);
  for (size_t i = 0; i < num_owners; ++i) {
    NodeId id = 0;
    uint32_t s = 0;
    if (!(in >> id >> s) || s >= saved_shards) {
      return Status::Corruption("shardmap: truncated owner table");
    }
    owner[id] = s;
  }

  shards_.clear();
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<ShardFile>(options_.am);
    CCAM_RETURN_NOT_OK(
        shard->OpenImage(path + ".shard" + std::to_string(s)));
    if (metrics_ != nullptr) shard->SetMetrics(metrics_);
    shards_.push_back(std::move(shard));
  }
  cut_edges_ = saved_cut;
  router_ = ShardRouter(options_.num_shards, std::move(owner));
  if (metrics_ != nullptr) router_.SetMetrics(metrics_);
  RebuildComposedPageMap();
  halo_counts_.assign(options_.num_shards, 0);
  CountHalo();
  return Status::OK();
}

IoStats ShardedNetworkFile::DataIoStats() const {
  IoStats sum;
  for (const auto& shard : shards_) sum = SumStats(sum, shard->DataIoStats());
  return sum;
}

IoStats ShardedNetworkFile::ShardIoStats(uint32_t s) const {
  return shards_[s]->DataIoStats();
}

void ShardedNetworkFile::ResetIoStats() {
  for (const auto& shard : shards_) shard->ResetIoStats();
}

size_t ShardedNetworkFile::NumDataPages() const {
  size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->NumDataPages();
  return sum;
}

size_t ShardedNetworkFile::TotalHaloRecords() const {
  size_t sum = 0;
  for (size_t h : halo_counts_) sum += h;
  return sum;
}

std::unique_ptr<ShardedQuerySession> ShardedNetworkFile::OpenSession() {
  return std::make_unique<ShardedQuerySession>(this);
}

std::unique_ptr<ReadSession> ShardedNetworkFile::OpenReadSession() {
  return OpenSession();
}

void ShardedNetworkFile::SetMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (const auto& shard : shards_) shard->SetMetrics(metrics);
  router_.SetMetrics(metrics);
}

void ShardedNetworkFile::PublishShardMetrics() {
  if (metrics_ == nullptr) return;
  metrics_->GetGauge("shard.count")->Set(options_.num_shards);
  metrics_->GetGauge("shard.cut_edges")->Set(
      static_cast<int64_t>(cut_edges_));
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    metrics_->GetGauge(prefix + "reads")
        ->Set(static_cast<int64_t>(shards_[s]->DataIoStats().reads));
    metrics_->GetGauge(prefix + "pages")
        ->Set(static_cast<int64_t>(shards_[s]->NumDataPages()));
    metrics_->GetGauge(prefix + "halo")
        ->Set(static_cast<int64_t>(halo_counts_[s]));
  }
}

ShardedQuerySession::ShardedQuerySession(ShardedNetworkFile* file)
    : file_(file) {
  sessions_.reserve(file_->num_shards());
  for (uint32_t s = 0; s < file_->num_shards(); ++s) {
    sessions_.push_back(file_->shards_[s]->OpenSession());
  }
  if (file_->metrics() != nullptr) {
    m_crossings_ = file_->metrics()->GetCounter("shard.cut_crossings");
  }
}

std::string ShardedQuerySession::Name() const {
  return "Sharded(" + std::to_string(file_->num_shards()) + ")/session";
}

Result<uint32_t> ShardedQuerySession::OwnerOf(NodeId id) const {
  uint32_t s = router().ShardOf(id);
  if (s == ShardRouter::kInvalidShard) {
    return Status::NotFound("node " + std::to_string(id) +
                            " not owned by any shard");
  }
  return s;
}

Result<NodeRecord> ShardedQuerySession::DoFind(NodeId id) {
  uint32_t s;
  CCAM_ASSIGN_OR_RETURN(s, OwnerOf(id));
  return sessions_[s]->Find(id);
}

Result<NodeRecord> ShardedQuerySession::DoGetASuccessor(NodeId from,
                                                        NodeId to) {
  uint32_t sf;
  CCAM_ASSIGN_OR_RETURN(sf, OwnerOf(from));
  uint32_t st = router().ShardOf(to);
  if (st != ShardRouter::kInvalidShard && st != sf) {
    // The hop crosses the coarse cut; the successor's record is still
    // local to `from`'s shard (its halo copy), so no second shard is
    // touched — this counter is the price a sharper partitioner would
    // lower, the coarse analogue of a split edge in the CRR.
    ++cut_crossings_;
    if (m_crossings_ != nullptr) m_crossings_->Inc();
  }
  return sessions_[sf]->GetASuccessor(from, to);
}

Result<std::vector<NodeRecord>> ShardedQuerySession::DoGetSuccessors(
    NodeId id) {
  uint32_t s;
  CCAM_ASSIGN_OR_RETURN(s, OwnerOf(id));
  return sessions_[s]->GetSuccessors(id);
}

size_t ShardedQuerySession::ReadAhead(const ReadHint* hints, size_t n) {
  DebugCheckThread();
  // The shards this hint reaches, in first-touch order; few per hint.
  struct Part {
    uint32_t shard;
    BufferPool::ReadAheadWindow window;
    std::vector<ReadHint> hints;
  };
  std::vector<Part> parts;
  size_t covered = 0;
  for (; covered < n; ++covered) {
    const ReadHint& hint = hints[covered];
    const uint32_t s = router().ShardOf(
        hint.from == kInvalidNodeId ? hint.node : hint.from);
    if (s == ShardRouter::kInvalidShard) continue;  // its read fails
    auto part = std::find_if(parts.begin(), parts.end(),
                             [s](const Part& p) { return p.shard == s; });
    if (part == parts.end()) {
      parts.push_back({s, BufferPool::ReadAheadWindow(
                              *sessions_[s]->buffer_pool()), {}});
      part = parts.end() - 1;
    }
    const NodePageMap& pages = file_->shard(s)->PageMap();
    auto it = pages.find(hint.node);
    if (!part->window.Admit(it == pages.end() ? kInvalidPageId : it->second)) {
      break;
    }
    part->hints.push_back(hint);
  }
  // Every part fits its window, so each shard session covers all of it.
  for (const Part& part : parts) {
    sessions_[part.shard]->ReadAhead(part.hints.data(), part.hints.size());
  }
  return covered;
}

void ShardedQuerySession::RebindToCurrentThread() {
  ReadSession::RebindToCurrentThread();
  for (const auto& session : sessions_) session->RebindToCurrentThread();
}

IoStats ShardedQuerySession::DataIoStats() const {
  IoStats sum;
  for (const auto& session : sessions_) {
    sum = SumStats(sum, session->DataIoStats());
  }
  return sum;
}

IoStats ShardedQuerySession::ShardIoStats(uint32_t s) const {
  return sessions_[s]->DataIoStats();
}

void ShardedQuerySession::ResetIoStats() {
  for (const auto& session : sessions_) session->ResetIoStats();
}

BufferPool* ShardedQuerySession::buffer_pool() {
  return sessions_[0]->buffer_pool();
}

std::vector<NodeId> ShardedQuerySession::LiveNodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(router().owner_map().size());
  for (const auto& kv : router().owner_map()) ids.push_back(kv.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace ccam
