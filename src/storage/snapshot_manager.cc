#include "src/storage/snapshot_manager.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/coding.h"

namespace ccam {

namespace {

namespace fs = std::filesystem;

/// "CCAMSNAP", little-endian.
constexpr uint64_t kManifestMagic = 0x50414E534D414343ull;

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("snapshot: cannot write " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IOError("snapshot: write failed for " + path);
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IOError("snapshot: rename " + from + " -> " + to + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace

// --- SnapshotVersion --------------------------------------------------------

SnapshotVersion::SnapshotVersion(uint64_t id, std::unique_ptr<Ccam> file)
    : id_(id), file_(std::move(file)) {}

std::vector<NodeId> SnapshotVersion::LiveNodeIds() const {
  const NodePageMap& base = file_->PageMap();
  std::vector<NodeId> ids;
  std::shared_lock<std::shared_mutex> lock(overlay_mu_);
  ids.reserve(base.size() + overlay_.size());
  for (const auto& kv : base) {
    auto it = overlay_.find(kv.first);
    if (it != overlay_.end() && !it->second.has_value()) continue;  // deleted
    ids.push_back(kv.first);
  }
  for (const auto& kv : overlay_) {
    if (kv.second.has_value() && base.find(kv.first) == base.end()) {
      ids.push_back(kv.first);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t SnapshotVersion::NumLiveNodes() const {
  const NodePageMap& base = file_->PageMap();
  std::shared_lock<std::shared_mutex> lock(overlay_mu_);
  size_t n = base.size();
  for (const auto& kv : overlay_) {
    bool in_base = base.find(kv.first) != base.end();
    if (kv.second.has_value() && !in_base) ++n;
    if (!kv.second.has_value() && in_base) --n;
  }
  return n;
}

// --- SnapshotSession --------------------------------------------------------

namespace {

using Overlay = std::unordered_map<NodeId, std::optional<NodeRecord>>;

Status TombstonedSuccessor(NodeId succ, NodeId id) {
  // Deleting `succ` would have rewritten id's record to drop the edge in
  // the same overlay publish; a tombstoned successor is a broken overlay.
  return Status::Corruption("snapshot overlay: successor " +
                            std::to_string(succ) + " of node " +
                            std::to_string(id) + " is tombstoned");
}

/// With the overlay read-locked: when anchor `id` has an overlay entry,
/// fills `out` with its successors' overlay records — successors without
/// an entry get an id-only placeholder, their indices appended to
/// `from_base` — and returns true (`*status` carries NotFound / Corruption
/// for a tombstoned anchor or successor). Returns false when `id` has no
/// overlay entry.
bool ResolveOverlayAnchor(const Overlay& overlay, NodeId id,
                          std::vector<NodeRecord>* out,
                          std::vector<size_t>* from_base, Status* status) {
  auto anchor = overlay.find(id);
  if (anchor == overlay.end()) return false;
  if (!anchor->second.has_value()) {
    *status = Status::NotFound("node " + std::to_string(id));
    return true;
  }
  out->reserve(anchor->second->succ.size());
  for (const AdjEntry& e : anchor->second->succ) {
    auto it = overlay.find(e.node);
    if (it == overlay.end()) {
      from_base->push_back(out->size());
      out->emplace_back().id = e.node;
    } else if (!it->second.has_value()) {
      *status = TombstonedSuccessor(e.node, id);
      return true;
    } else {
      out->push_back(*it->second);
    }
  }
  return true;
}

}  // namespace

void SnapshotSession::Refresh() {
  DebugCheckThread();
  if (manager_->CurrentVersionId() == version_->id()) return;
  std::shared_ptr<SnapshotVersion> next = manager_->Acquire();
  manager_->Release(version_);
  version_ = std::move(next);
}

size_t SnapshotSession::ReadAhead(const ReadHint* hints, size_t n) {
  DebugCheckThread();
  // A node the overlay shadows reads no base page. The overlay only grows
  // while the version is current, so a node shadowed now is still
  // shadowed when it is read. Each check takes the shared lock alone, so
  // a publishing writer never waits for more than one lookup.
  const SnapshotVersion& v = *version_;
  return v.file()->SharedReadAhead(hints, n, &io_, [&v](NodeId id) {
    std::shared_lock<std::shared_mutex> lock(v.overlay_mu_);
    return v.overlay_.count(id) != 0;
  });
}

Result<NodeRecord> SnapshotSession::DoFind(NodeId id) {
  std::optional<NodeRecord> overlay;
  if (version_->OverlayLookup(id, &overlay)) {
    if (!overlay.has_value()) {
      return Status::NotFound("node " + std::to_string(id));
    }
    return *overlay;
  }
  return version_->file()->SharedFind(id, &io_);
}

Result<NodeRecord> SnapshotSession::DoGetASuccessor(NodeId from, NodeId to) {
  std::optional<NodeRecord> overlay;
  if (version_->OverlayLookup(to, &overlay)) {
    if (!overlay.has_value()) {
      return Status::NotFound("node " + std::to_string(to));
    }
    return *overlay;
  }
  return version_->file()->SharedGetASuccessor(from, to, &io_);
}

Result<std::vector<NodeRecord>> SnapshotSession::DoGetSuccessors(NodeId id) {
  // All overlay lookups of one call resolve against a single overlay view
  // (one shared-lock hold); page I/O runs with the lock released. Mutations
  // publish whole and the overlay only grows while the version is current,
  // so an anchor still absent from the overlay after its base read was
  // absent throughout: its base successor list is current in that view.
  const SnapshotVersion& v = *version_;
  std::vector<NodeRecord> out;
  std::vector<size_t> from_base;
  Status status;
  bool mutated;
  {
    std::shared_lock<std::shared_mutex> lock(v.overlay_mu_);
    mutated = ResolveOverlayAnchor(v.overlay_, id, &out, &from_base, &status);
  }
  if (!mutated) {
    auto base = v.file()->SharedGetSuccessors(id, &io_);
    std::shared_lock<std::shared_mutex> lock(v.overlay_mu_);
    mutated = ResolveOverlayAnchor(v.overlay_, id, &out, &from_base, &status);
    if (!mutated) {
      // Anchor unchanged; individual successor *records* may still have
      // mutated — substitute those.
      if (!base.ok()) return base;
      for (NodeRecord& rec : *base) {
        auto it = v.overlay_.find(rec.id);
        if (it == v.overlay_.end()) continue;
        if (!it->second.has_value()) return TombstonedSuccessor(rec.id, id);
        rec = *it->second;
      }
      return base;
    }
  }
  // The anchor mutated since this version published: its overlay record
  // carries the authoritative successor list; the base image serves the
  // successors the view left unchanged.
  CCAM_RETURN_NOT_OK(status);
  for (size_t i : from_base) {
    auto rec = v.file()->SharedFind(out[i].id, &io_);
    if (!rec.ok()) return rec.status();
    out[i] = std::move(*rec);
  }
  return out;
}

// --- SnapshotManager: lifecycle --------------------------------------------

SnapshotManager::SnapshotManager(const SnapshotOptions& options)
    : options_(options) {
  log_.SetHaltFlag(&halted_);
}

SnapshotManager::~SnapshotManager() {
  ReleasePublishGate();
  (void)WaitForReorg();
  log_.Close();
}

static Status ValidateSnapshotOptions(const SnapshotOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("snapshot store: empty directory");
  }
  if (options.am.hierarchy_overlay) {
    return Status::InvalidArgument(
        "snapshot store: hierarchy_overlay is not supported");
  }
  return Status::OK();
}

Result<std::unique_ptr<SnapshotManager>> SnapshotManager::Create(
    const SnapshotOptions& options, const Network& initial) {
  CCAM_RETURN_NOT_OK(ValidateSnapshotOptions(options));
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("snapshot store: cannot create " + options.dir +
                           ": " + ec.message());
  }
  std::unique_ptr<SnapshotManager> mgr(new SnapshotManager(options));
  if (fs::exists(mgr->ManifestPath())) {
    return Status::AlreadyExists("snapshot store already exists in " +
                                 options.dir + " (use Open)");
  }
  mgr->net_ = initial;
  auto file = std::make_unique<Ccam>(options.am);
  CCAM_RETURN_NOT_OK(file->Create(initial));
  CCAM_RETURN_NOT_OK(file->SaveImage(mgr->ImagePath(1)));
  CCAM_RETURN_NOT_OK(mgr->WriteManifest(1, ImageName(1), 0, SIZE_MAX));
  CCAM_RETURN_NOT_OK(
      RenameFile(mgr->ManifestPath() + ".tmp", mgr->ManifestPath()));
  CCAM_RETURN_NOT_OK(mgr->log_.Open(mgr->DeltaLogPath()));
  auto version = std::make_shared<SnapshotVersion>(1, std::move(file));
  mgr->current_ = version;
  mgr->versions_.push_back(std::move(version));
  mgr->next_version_id_ = 2;
  mgr->next_lsn_ = 1;
  mgr->folded_lsn_ = 0;
  return mgr;
}

Result<std::unique_ptr<SnapshotManager>> SnapshotManager::Open(
    const SnapshotOptions& options) {
  CCAM_RETURN_NOT_OK(ValidateSnapshotOptions(options));
  std::unique_ptr<SnapshotManager> mgr(new SnapshotManager(options));
  auto manifest = ReadManifest(mgr->ManifestPath());
  if (!manifest.ok()) return manifest.status();

  auto file = std::make_unique<Ccam>(options.am);
  CCAM_RETURN_NOT_OK(
      file->OpenImage(options.dir + "/" + manifest->image_name));
  auto net = file->ExportNetwork();
  if (!net.ok()) return net.status();
  mgr->net_ = std::move(*net);

  size_t log_valid_bytes = 0;
  auto records = DeltaLog::ScanFile(mgr->DeltaLogPath(), &log_valid_bytes);
  if (!records.ok()) return records.status();
  // Chop a torn tail off the physical file: the log reopens in append
  // mode, and a new frame written after torn garbage would be unreadable
  // on the next scan — a silent lost-ack.
  {
    std::error_code trunc_ec;
    if (fs::exists(mgr->DeltaLogPath(), trunc_ec) &&
        fs::file_size(mgr->DeltaLogPath(), trunc_ec) > log_valid_bytes) {
      fs::resize_file(mgr->DeltaLogPath(), log_valid_bytes, trunc_ec);
      if (trunc_ec) {
        return Status::IOError("snapshot store: cannot truncate torn log: " +
                               trunc_ec.message());
      }
    }
  }

  auto version =
      std::make_shared<SnapshotVersion>(manifest->version_id, std::move(file));
  uint64_t max_lsn = manifest->folded_lsn;
  for (const DeltaRecord& record : *records) {
    if (record.lsn <= manifest->folded_lsn) continue;  // already in the image
    if (record.lsn <= max_lsn) {
      return Status::Corruption("delta log: non-monotonic lsn " +
                                std::to_string(record.lsn));
    }
    Status valid = ValidateMutation(mgr->net_, record);
    if (!valid.ok()) {
      return Status::Corruption("delta log replay (lsn " +
                                std::to_string(record.lsn) + ", " +
                                DeltaKindName(record.kind) +
                                "): " + valid.ToString());
    }
    std::vector<NodeId> affected = AffectedNodes(mgr->net_, record);
    Status applied = ApplyMutation(&mgr->net_, record);
    if (!applied.ok()) {
      return Status::Corruption("delta log replay (lsn " +
                                std::to_string(record.lsn) +
                                "): " + applied.ToString());
    }
    version->OverlayPublish(mgr->RecordsOf(affected));
    mgr->retained_.push_back(record);
    max_lsn = record.lsn;
  }
  mgr->folded_lsn_ = manifest->folded_lsn;
  mgr->next_lsn_ = max_lsn + 1;
  mgr->next_version_id_ = manifest->version_id + 1;
  mgr->current_ = version;
  mgr->versions_.push_back(std::move(version));
  CCAM_RETURN_NOT_OK(mgr->log_.Open(mgr->DeltaLogPath()));

  // Clear strays: unpublished build images, tmp files of interrupted
  // publishes/retires. Only MANIFEST, the delta log and the published
  // image are load-bearing.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options.dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name == "MANIFEST" || name == "delta.log" ||
        name == manifest->image_name) {
      continue;
    }
    fs::remove(entry.path(), ec);
  }
  return mgr;
}

// --- SnapshotManager: manifest ---------------------------------------------

std::string SnapshotManager::ManifestPath() const {
  return options_.dir + "/MANIFEST";
}
std::string SnapshotManager::DeltaLogPath() const {
  return options_.dir + "/delta.log";
}
std::string SnapshotManager::ImageName(uint64_t version_id) {
  return "v" + std::to_string(version_id) + ".img";
}
std::string SnapshotManager::ImagePath(uint64_t version_id) const {
  return options_.dir + "/" + ImageName(version_id);
}

Status SnapshotManager::WriteManifest(uint64_t version_id,
                                      const std::string& image_name,
                                      uint64_t folded_lsn,
                                      size_t truncate_to) {
  std::string bytes;
  char buf[8];
  EncodeFixed64(buf, kManifestMagic);
  bytes.append(buf, 8);
  EncodeFixed64(buf, version_id);
  bytes.append(buf, 8);
  EncodeFixed64(buf, folded_lsn);
  bytes.append(buf, 8);
  EncodeFixed32(buf, static_cast<uint32_t>(image_name.size()));
  bytes.append(buf, 4);
  bytes += image_name;
  uint32_t crc = Crc32c(bytes.data(), bytes.size());
  EncodeFixed32(buf, crc);
  bytes.append(buf, 4);
  if (truncate_to < bytes.size()) bytes.resize(truncate_to);  // torn write
  return WriteFileBytes(ManifestPath() + ".tmp", bytes);
}

Result<SnapshotManager::Manifest> SnapshotManager::ReadManifest(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("snapshot manifest missing: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string bytes = ss.str();
  constexpr size_t kFixed = 8 + 8 + 8 + 4 + 4;
  if (bytes.size() < kFixed) {
    return Status::Corruption("snapshot manifest truncated");
  }
  if (DecodeFixed64(bytes.data()) != kManifestMagic) {
    return Status::Corruption("not a snapshot manifest");
  }
  uint32_t name_len = DecodeFixed32(bytes.data() + 24);
  if (bytes.size() != kFixed + name_len) {
    return Status::Corruption("snapshot manifest: bad length");
  }
  uint32_t stored = DecodeFixed32(bytes.data() + bytes.size() - 4);
  uint32_t actual = Crc32c(bytes.data(), bytes.size() - 4);
  if (stored != actual) {
    return Status::Corruption("snapshot manifest: checksum mismatch");
  }
  Manifest m;
  m.version_id = DecodeFixed64(bytes.data() + 8);
  m.folded_lsn = DecodeFixed64(bytes.data() + 16);
  m.image_name = bytes.substr(28, name_len);
  if (m.version_id == 0 || m.image_name.empty()) {
    return Status::Corruption("snapshot manifest: bad fields");
  }
  return m;
}

// --- SnapshotManager: mutation semantics -----------------------------------

Status SnapshotManager::ValidateMutation(const Network& net,
                                         const DeltaRecord& record) {
  switch (record.kind) {
    case DeltaRecord::Kind::kInsertNode:
      if (record.node.id == kInvalidNodeId) {
        return Status::InvalidArgument("insert-node: invalid node id");
      }
      if (net.HasNode(record.node.id)) {
        return Status::AlreadyExists("node " +
                                     std::to_string(record.node.id));
      }
      // Self-adjacency would fail at apply time (Network rejects
      // self-loops); refuse before the record is logged and acked.
      for (const AdjEntry& e : record.node.succ) {
        if (e.node == record.node.id) {
          return Status::InvalidArgument("insert-node: self-loop");
        }
      }
      for (const AdjEntry& e : record.node.pred) {
        if (e.node == record.node.id) {
          return Status::InvalidArgument("insert-node: self-loop");
        }
      }
      return Status::OK();
    case DeltaRecord::Kind::kDeleteNode:
      if (!net.HasNode(record.u)) {
        return Status::NotFound("node " + std::to_string(record.u));
      }
      return Status::OK();
    case DeltaRecord::Kind::kInsertEdge:
      if (record.u == record.v) {
        return Status::InvalidArgument("insert-edge: self-loop");
      }
      if (!net.HasNode(record.u)) {
        return Status::NotFound("node " + std::to_string(record.u));
      }
      if (!net.HasNode(record.v)) {
        return Status::NotFound("node " + std::to_string(record.v));
      }
      if (net.HasEdge(record.u, record.v)) {
        return Status::AlreadyExists("edge " + std::to_string(record.u) +
                                     "->" + std::to_string(record.v));
      }
      return Status::OK();
    case DeltaRecord::Kind::kDeleteEdge:
      if (!net.HasEdge(record.u, record.v)) {
        return Status::NotFound("edge " + std::to_string(record.u) + "->" +
                                std::to_string(record.v));
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown delta kind");
}

Status SnapshotManager::ApplyMutation(Network* net,
                                      const DeltaRecord& record) {
  switch (record.kind) {
    case DeltaRecord::Kind::kInsertNode: {
      const NodeRecord& r = record.node;
      CCAM_RETURN_NOT_OK(net->AddNode(r.id, r.x, r.y, r.payload));
      // NetworkFile::InsertNode convention: adjacency entries whose
      // endpoint is absent are dropped; existing edges are kept as-is.
      for (const AdjEntry& e : r.succ) {
        if (net->HasNode(e.node) && !net->HasEdge(r.id, e.node)) {
          CCAM_RETURN_NOT_OK(net->AddEdge(r.id, e.node, e.cost));
        }
      }
      for (const AdjEntry& e : r.pred) {
        if (net->HasNode(e.node) && !net->HasEdge(e.node, r.id)) {
          CCAM_RETURN_NOT_OK(net->AddEdge(e.node, r.id, e.cost));
        }
      }
      return Status::OK();
    }
    case DeltaRecord::Kind::kDeleteNode:
      return net->RemoveNode(record.u);
    case DeltaRecord::Kind::kInsertEdge:
      return net->AddEdge(record.u, record.v, record.cost);
    case DeltaRecord::Kind::kDeleteEdge:
      return net->RemoveEdge(record.u, record.v);
  }
  return Status::InvalidArgument("unknown delta kind");
}

std::vector<NodeId> SnapshotManager::AffectedNodes(const Network& net,
                                                   const DeltaRecord& record) {
  std::vector<NodeId> out;
  switch (record.kind) {
    case DeltaRecord::Kind::kInsertNode:
      out.push_back(record.node.id);
      for (const AdjEntry& e : record.node.succ) {
        if (net.HasNode(e.node)) out.push_back(e.node);
      }
      for (const AdjEntry& e : record.node.pred) {
        if (net.HasNode(e.node)) out.push_back(e.node);
      }
      break;
    case DeltaRecord::Kind::kDeleteNode: {
      out.push_back(record.u);
      for (NodeId nbr : net.Neighbors(record.u)) out.push_back(nbr);
      break;
    }
    case DeltaRecord::Kind::kInsertEdge:
    case DeltaRecord::Kind::kDeleteEdge:
      out.push_back(record.u);
      out.push_back(record.v);
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::pair<NodeId, std::optional<NodeRecord>>>
SnapshotManager::RecordsOf(const std::vector<NodeId>& ids) const {
  std::vector<std::pair<NodeId, std::optional<NodeRecord>>> out;
  out.reserve(ids.size());
  for (NodeId id : ids) {
    std::optional<NodeRecord> rec;
    if (net_.HasNode(id)) rec = NodeRecord::FromNetworkNode(id, net_.node(id));
    out.emplace_back(id, std::move(rec));
  }
  return out;
}

Status SnapshotManager::ApplyAndLog(DeltaRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (halted()) return Status::IOError("snapshot store halted");
  CCAM_RETURN_NOT_OK(ValidateMutation(net_, record));
  record.lsn = next_lsn_;
  // Log-then-apply: the flush is the acknowledgment barrier. A crash
  // injected into the log leaves the in-memory state untouched (the torn
  // frame truncates away on recovery; a *complete* frame that slipped out
  // is the classic acked-vs-durable gap the strict oracle tolerates).
  CCAM_RETURN_NOT_OK(log_.Append(record));
  CCAM_RETURN_NOT_OK(log_.Flush());
  ++next_lsn_;
  std::vector<NodeId> affected = AffectedNodes(net_, record);
  Status applied = ApplyMutation(&net_, record);
  if (!applied.ok()) {
    // Validated mutations must apply; anything else is an internal
    // inconsistency between validate and apply. Halt rather than serve a
    // network that diverged from the acknowledged log.
    halted_.store(true, std::memory_order_release);
    return Status::Corruption("snapshot mutation applied inconsistently: " +
                              applied.ToString());
  }
  auto records = RecordsOf(affected);
  if (build_active_) {
    for (const auto& [id, rec] : records) pending_overlay_[id] = rec;
  }
  current_->OverlayPublish(std::move(records));
  retained_.push_back(std::move(record));
  if (m_mutations_ != nullptr) m_mutations_->Inc();
  return Status::OK();
}

Status SnapshotManager::InsertNode(const NodeRecord& record) {
  DeltaRecord r;
  r.kind = DeltaRecord::Kind::kInsertNode;
  r.node = record;
  r.u = record.id;
  return ApplyAndLog(std::move(r));
}

Status SnapshotManager::DeleteNode(NodeId id) {
  DeltaRecord r;
  r.kind = DeltaRecord::Kind::kDeleteNode;
  r.u = id;
  return ApplyAndLog(std::move(r));
}

Status SnapshotManager::InsertEdge(NodeId u, NodeId v, float cost) {
  DeltaRecord r;
  r.kind = DeltaRecord::Kind::kInsertEdge;
  r.u = u;
  r.v = v;
  r.cost = cost;
  return ApplyAndLog(std::move(r));
}

Status SnapshotManager::DeleteEdge(NodeId u, NodeId v) {
  DeltaRecord r;
  r.kind = DeltaRecord::Kind::kDeleteEdge;
  r.u = u;
  r.v = v;
  return ApplyAndLog(std::move(r));
}

// --- SnapshotManager: sessions ---------------------------------------------

std::unique_ptr<SnapshotSession> SnapshotManager::OpenSession() {
  return std::make_unique<SnapshotSession>(this);
}

std::unique_ptr<ReadSession> SnapshotManager::OpenReadSession() {
  return OpenSession();
}

std::shared_ptr<SnapshotVersion> SnapshotManager::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  current_->refs_.fetch_add(1, std::memory_order_acq_rel);
  total_acquires_.fetch_add(1, std::memory_order_acq_rel);
  if (m_acquire_ != nullptr) m_acquire_->Inc();
  return current_;
}

void SnapshotManager::Release(const std::shared_ptr<SnapshotVersion>& version) {
  std::lock_guard<std::mutex> lock(mu_);
  version->refs_.fetch_sub(1, std::memory_order_acq_rel);
  total_releases_.fetch_add(1, std::memory_order_acq_rel);
  if (m_release_ != nullptr) m_release_->Inc();
  if (version != current_ && version->refs() == 0) {
    // The last session of a retired version drained: drop its file (and
    // buffer pool) from memory. The on-disk side retired at publish time.
    versions_.erase(std::remove(versions_.begin(), versions_.end(), version),
                    versions_.end());
    if (g_live_versions_ != nullptr) {
      g_live_versions_->Set(static_cast<int64_t>(versions_.size()));
    }
  }
}

uint64_t SnapshotManager::CurrentVersionId() const {
  std::shared_lock<std::shared_mutex> lock(current_mu_);
  return current_->id();
}

size_t SnapshotManager::LiveVersionCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.size();
}

uint64_t SnapshotManager::NextLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

bool SnapshotManager::Contains(NodeId id) {
  // The published version's page map is immutable and its overlay has
  // its own lock, so neither a writer nor a swap holding mu_ delays this.
  std::shared_lock<std::shared_mutex> lock(current_mu_);
  std::optional<NodeRecord> overlay;
  if (current_->OverlayLookup(id, &overlay)) return overlay.has_value();
  return current_->file()->PageMap().count(id) > 0;
}

// --- SnapshotManager: reorganization ---------------------------------------

Status SnapshotManager::ReorganizeNow() { return DoReorganize(); }

Status SnapshotManager::StartBackgroundReorg() {
  std::lock_guard<std::mutex> lock(mu_);
  if (halted()) return Status::IOError("snapshot store halted");
  if (build_active_ || reorg_thread_running_) {
    return Status::AlreadyExists("reorganization already running");
  }
  if (reorg_thread_.joinable()) reorg_thread_.join();  // collect previous
  reorg_thread_running_ = true;
  reorg_thread_ = std::thread([this] {
    Status st = DoReorganize();
    std::lock_guard<std::mutex> inner(mu_);
    reorg_status_ = std::move(st);
    reorg_thread_running_ = false;
  });
  return Status::OK();
}

Status SnapshotManager::WaitForReorg() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = std::move(reorg_thread_);
  }
  if (t.joinable()) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  return reorg_status_;
}

bool SnapshotManager::ReorgActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Covers the window between StartBackgroundReorg() and the spawned
  // thread reaching the cut — the same pair StartBackgroundReorg checks.
  return build_active_ || reorg_thread_running_;
}

void SnapshotManager::GatePublish(bool gate) {
  std::lock_guard<std::mutex> lock(gate_mu_);
  gate_publish_ = gate;
  gate_open_ = false;
}

void SnapshotManager::ReleasePublishGate() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_open_ = true;
  }
  gate_cv_.notify_all();
}

Status SnapshotManager::Failpoint(const char* point,
                                  const std::function<void(size_t)>& torn) {
  if (faults_ == nullptr) return Status::OK();
  auto fault = faults_->Hit(point);
  if (!fault.has_value()) return Status::OK();
  if (fault->kind == FaultAction::Kind::kCrash) {
    if (torn) torn(fault->bytes);
    halted_.store(true, std::memory_order_release);
    return Status::IOError(std::string(point) + ": simulated crash");
  }
  return Status::FromCode(fault->code,
                          std::string("injected fault: ") + point);
}

Status SnapshotManager::DoReorganize() {
  Network cut;
  uint64_t cut_lsn = 0;
  uint64_t new_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (halted()) return Status::IOError("snapshot store halted");
    if (build_active_) {
      return Status::AlreadyExists("reorganization already running");
    }
    build_active_ = true;
    pending_overlay_.clear();
    cut = net_;                 // the cut: the new base's exact contents
    cut_lsn = next_lsn_ - 1;    // every lsn <= cut_lsn folds into the image
    new_id = next_version_id_;
  }
  auto finish = [this](Status st) {
    std::lock_guard<std::mutex> lock(mu_);
    build_active_ = false;
    pending_overlay_.clear();
    return st;
  };

  // --- Build: fully recluster the cut into a fresh file, off to the side.
  // No manager lock held — mutations and readers proceed concurrently; the
  // build file's private DiskManager/BufferPool never touch theirs.
  auto file = std::make_unique<Ccam>(options_.am);
  {
    ScopedLatencyTimer timer(h_build_us_);
    Status built = file->Create(cut);
    if (!built.ok()) return finish(built);
  }
  const std::string image = ImagePath(new_id);
  Status fp = Failpoint("snapshot.build", [&](size_t bytes) {
    // Crash mid-image-write: a torn prefix of the stray build image lands.
    // Recovery removes it — MANIFEST never learned the name.
    if (file->SaveImage(image).ok()) {
      std::error_code ec;
      fs::resize_file(image, bytes, ec);
    }
  });
  if (!fp.ok()) return finish(fp);
  Status saved = file->SaveImage(image);
  if (!saved.ok()) return finish(saved);
  fp = Failpoint("snapshot.build");  // complete stray image on disk
  if (!fp.ok()) return finish(fp);

  // --- Publish gate (test hook): park with the build done, swap pending.
  {
    std::unique_lock<std::mutex> glock(gate_mu_);
    gate_cv_.wait(glock, [this] { return !gate_publish_ || gate_open_; });
    gate_open_ = false;
  }

  // --- Publish + retire run under the manager lock (mutations pause for
  // the swap, never for the build).
  Status tail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tail = PublishAndRetireLocked(std::move(file), new_id, cut_lsn);
  }
  return finish(tail);
}

Status SnapshotManager::PublishAndRetireLocked(std::unique_ptr<Ccam> file,
                                               uint64_t new_id,
                                               uint64_t cut_lsn) {
  if (halted()) return Status::IOError("snapshot store halted");

  // --- Publish: MANIFEST.tmp, then the atomic rename — the commit point.
  Status fp = Failpoint("snapshot.publish", [&](size_t bytes) {
    (void)WriteManifest(new_id, ImageName(new_id), cut_lsn, bytes);
  });
  CCAM_RETURN_NOT_OK(fp);
  CCAM_RETURN_NOT_OK(
      WriteManifest(new_id, ImageName(new_id), cut_lsn, SIZE_MAX));
  CCAM_RETURN_NOT_OK(Failpoint("snapshot.publish"));  // tmp done, no rename
  CCAM_RETURN_NOT_OK(RenameFile(ManifestPath() + ".tmp", ManifestPath()));
  Status after = Failpoint("snapshot.publish");  // commit point crossed

  // The swap itself: in-memory state must match the durable commit even
  // when the injected crash fires right after the rename.
  auto next = std::make_shared<SnapshotVersion>(new_id, std::move(file));
  next->overlay_ = std::move(pending_overlay_);  // the post-cut tail
  pending_overlay_.clear();
  std::shared_ptr<SnapshotVersion> old = current_;
  {
    std::unique_lock<std::shared_mutex> publish(current_mu_);
    current_ = next;
  }
  versions_.push_back(std::move(next));
  ++next_version_id_;
  folded_lsn_ = cut_lsn;
  retained_.erase(
      std::remove_if(retained_.begin(), retained_.end(),
                     [&](const DeltaRecord& r) { return r.lsn <= cut_lsn; }),
      retained_.end());
  if (old->refs() == 0) {
    versions_.erase(std::remove(versions_.begin(), versions_.end(), old),
                    versions_.end());
  }
  reorg_count_.fetch_add(1, std::memory_order_acq_rel);
  if (m_publish_ != nullptr) m_publish_->Inc();
  if (g_live_versions_ != nullptr) {
    g_live_versions_->Set(static_cast<int64_t>(versions_.size()));
  }
  CCAM_RETURN_NOT_OK(after);

  // --- Retire: remove the old image, compact the delta log down to the
  // un-folded tail. Both steps are redundant with MANIFEST (recovery
  // filters by folded_lsn and deletes strays), so any crash here merely
  // leaves garbage for recovery to sweep.
  uint64_t old_id = old->id();
  CCAM_RETURN_NOT_OK(Failpoint("snapshot.retire"));  // before image unlink
  std::error_code ec;
  fs::remove(ImagePath(old_id), ec);
  const std::string log_tmp = DeltaLogPath() + ".tmp";
  fp = Failpoint("snapshot.retire", [&](size_t bytes) {
    (void)DeltaLog::WriteAll(log_tmp, retained_, bytes);  // torn tmp
  });
  CCAM_RETURN_NOT_OK(fp);
  log_.Close();
  CCAM_RETURN_NOT_OK(DeltaLog::WriteAll(log_tmp, retained_, SIZE_MAX));
  CCAM_RETURN_NOT_OK(Failpoint("snapshot.retire"));  // tmp done, no rename
  CCAM_RETURN_NOT_OK(RenameFile(log_tmp, DeltaLogPath()));
  CCAM_RETURN_NOT_OK(Failpoint("snapshot.retire"));  // after the rename
  CCAM_RETURN_NOT_OK(log_.Open(DeltaLogPath()));
  if (m_retire_ != nullptr) m_retire_->Inc();
  return Status::OK();
}

// --- SnapshotManager: consistency ------------------------------------------

namespace {

/// Order-insensitive record equality: adjacency-list *sets* must match, but
/// not their order — a network recovered via ExportNetwork rebuilds
/// predecessor lists in scan order, not insertion order.
bool CanonicallyEqual(NodeRecord a, NodeRecord b) {
  auto by_endpoint = [](const AdjEntry& x, const AdjEntry& y) {
    return x.node != y.node ? x.node < y.node : x.cost < y.cost;
  };
  std::sort(a.succ.begin(), a.succ.end(), by_endpoint);
  std::sort(b.succ.begin(), b.succ.end(), by_endpoint);
  std::sort(a.pred.begin(), a.pred.end(), by_endpoint);
  std::sort(b.pred.begin(), b.pred.end(), by_endpoint);
  return a == b;
}

}  // namespace

Status SnapshotManager::CheckConsistency() {
  std::lock_guard<std::mutex> lock(mu_);
  CCAM_RETURN_NOT_OK(current_->file()->CheckFileInvariants());
  CCAM_RETURN_NOT_OK(current_->file()->CheckGraphInvariants());
  std::vector<NodeId> visible = current_->LiveNodeIds();
  std::vector<NodeId> expected = net_.NodeIds();
  if (visible != expected) {
    return Status::Corruption(
        "snapshot: visible node set diverged from the network (" +
        std::to_string(visible.size()) + " visible vs " +
        std::to_string(expected.size()) + " expected)");
  }
  for (NodeId id : expected) {
    NodeRecord want = NodeRecord::FromNetworkNode(id, net_.node(id));
    std::optional<NodeRecord> got;
    std::optional<NodeRecord> overlay;
    if (current_->OverlayLookup(id, &overlay)) {
      got = std::move(overlay);
    } else {
      auto rec = current_->file()->SharedFind(id, nullptr);
      if (!rec.ok()) return rec.status();
      got = std::move(*rec);
    }
    if (!got.has_value() || !CanonicallyEqual(*got, want)) {
      return Status::Corruption("snapshot: record of node " +
                                std::to_string(id) +
                                " diverged from the network");
    }
  }
  return Status::OK();
}

// --- SnapshotManager: wiring ------------------------------------------------

void SnapshotManager::SetFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  log_.SetFaultInjector(faults);
}

void SnapshotManager::SetMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics != nullptr) {
    m_publish_ = metrics->GetCounter("snapshot.publish");
    m_retire_ = metrics->GetCounter("snapshot.retire");
    m_acquire_ = metrics->GetCounter("snapshot.acquire");
    m_release_ = metrics->GetCounter("snapshot.release");
    m_mutations_ = metrics->GetCounter("snapshot.mutations");
    g_live_versions_ = metrics->GetGauge("snapshot.live_versions");
    h_build_us_ = metrics->GetHistogram("snapshot.build_us");
  } else {
    m_publish_ = nullptr;
    m_retire_ = nullptr;
    m_acquire_ = nullptr;
    m_release_ = nullptr;
    m_mutations_ = nullptr;
    g_live_versions_ = nullptr;
    h_build_us_ = nullptr;
  }
}

}  // namespace ccam
