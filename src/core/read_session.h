#ifndef CCAM_CORE_READ_SESSION_H_
#define CCAM_CORE_READ_SESSION_H_

#include <cassert>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/request_context.h"
#include "src/core/access_method.h"

namespace ccam {

/// The read-only query stream every session type shares: a QuerySession
/// over one NetworkFile, a SnapshotSession pinned to a published snapshot
/// version, and a ShardedQuerySession routing across shard files. Sessions
/// implement the AccessMethod interface so every query driver (route
/// evaluation, A*, traversals, aggregation, CH) runs against any of them
/// unchanged. This base owns, once, what every session does the same way:
///
///   * read-only mutators: Create and the four maintenance operations
///     return NotSupported, and LastOpChangedStructure() is always false;
///   * the per-read prologue — the debug thread check, then the lifecycle
///     context poll — run before each Find / Get-A-successor /
///     Get-successors / HierarchyNode hook;
///   * per-session data and overlay IoStats. A fetch is charged to the
///     session iff it missed the shared buffer pool, so the sessions'
///     counters sum exactly to the file's global disk reads.
///
/// Subclasses supply the Do* read hooks, the read-side geometry (PageMap,
/// buffer_pool, NumDataPages) and whatever genuinely differs: snapshot
/// version refresh and overlay-first lookups, shard routing and per-shard
/// sums.
///
/// Concurrency contract: one session per thread (the counters are plain
/// fields); any number of sessions may read one store concurrently. Debug
/// builds enforce it: the session binds to the thread of its first read
/// and asserts every later read runs on that same thread — a violation
/// would corrupt the per-session counters silently (two unsynchronized
/// writers on plain uint64_t fields) and only surface, sometimes, as a
/// conservation mismatch much later. A deliberate single-threaded handoff
/// (a pool worker adopting a session built elsewhere) calls
/// RebindToCurrentThread() at the ownership transfer.
class ReadSession : public AccessMethod {
 public:
  Status Create(const Network&) final { return ReadOnly(); }
  Status InsertNode(const NodeRecord&, ReorgPolicy) final { return ReadOnly(); }
  Status DeleteNode(NodeId, ReorgPolicy) final { return ReadOnly(); }
  Status InsertEdge(NodeId, NodeId, float, ReorgPolicy) final {
    return ReadOnly();
  }
  Status DeleteEdge(NodeId, NodeId, ReorgPolicy) final { return ReadOnly(); }
  bool LastOpChangedStructure() const final { return false; }

  Result<NodeRecord> Find(NodeId id) final {
    CCAM_RETURN_NOT_OK(BeginRead());
    return DoFind(id);
  }
  Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) final {
    CCAM_RETURN_NOT_OK(BeginRead());
    return DoGetASuccessor(from, to);
  }
  Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) final {
    CCAM_RETURN_NOT_OK(BeginRead());
    return DoGetSuccessors(id);
  }
  Result<HierarchyNodeRecord> HierarchyNode(NodeId id) final {
    CCAM_RETURN_NOT_OK(BeginRead());
    return DoHierarchyNode(id);
  }

  /// This session's data-page accesses (not the store's global counters).
  IoStats DataIoStats() const override { return io_; }
  /// This session's overlay-page accesses, same convention.
  IoStats HierarchyIoStats() const override { return hier_io_; }
  void ResetIoStats() override {
    io_ = IoStats{};
    hier_io_ = IoStats{};
  }

  /// Re-pins the session to the store's current published state. Call
  /// only between queries (no pins or in-flight reads held). A no-op for
  /// immutable stores; snapshot sessions re-acquire the current version.
  virtual void Refresh() {}

  /// Attaches (or with nullptr, detaches) the lifecycle context governing
  /// reads through this session. The session does not own the context; the
  /// caller keeps it alive for the duration of the request. Detached is
  /// the default and costs one branch per read.
  void SetRequestContext(RequestContext* ctx) { ctx_ = ctx; }
  RequestContext* request_context() const override { return ctx_; }

  /// Transfers the session to the calling thread (debug-build contract
  /// bookkeeping only). Call at a deliberate ownership handoff — e.g. a
  /// serving worker adopting a session that the service constructed on its
  /// own thread — never to share one session between live threads.
  virtual void RebindToCurrentThread() {
#ifndef NDEBUG
    bound_thread_ = std::this_thread::get_id();
#endif
  }

 protected:
  virtual Result<NodeRecord> DoFind(NodeId id) = 0;
  virtual Result<NodeRecord> DoGetASuccessor(NodeId from, NodeId to) = 0;
  virtual Result<std::vector<NodeRecord>> DoGetSuccessors(NodeId id) = 0;
  virtual Result<HierarchyNodeRecord> DoHierarchyNode(NodeId id) {
    return AccessMethod::HierarchyNode(id);
  }

  void DebugCheckThread() {
#ifndef NDEBUG
    if (bound_thread_ == std::thread::id()) {
      bound_thread_ = std::this_thread::get_id();
    }
    assert(bound_thread_ == std::this_thread::get_id() &&
           "read session used from two threads: open one session per "
           "thread (or RebindToCurrentThread() at a single-threaded "
           "handoff)");
#endif
  }

  IoStats io_;       // per-session: the session is single-threaded by contract
  IoStats hier_io_;  // per-session overlay reads, same contract

 private:
  static Status ReadOnly() {
    return Status::NotSupported("read-only session");
  }

  /// The one per-read prologue: thread contract, then lifecycle poll.
  Status BeginRead() {
    DebugCheckThread();
    if (ctx_ != nullptr) return ctx_->Check();
    return Status::OK();
  }

  RequestContext* ctx_ = nullptr;  // not owned; null = lifecycle checks off
#ifndef NDEBUG
  /// Thread of the first read (default id = not yet bound).
  std::thread::id bound_thread_{};
#endif
};

/// A store that hands out read sessions: what the serving layer needs of a
/// NetworkFile, a SnapshotManager or a ShardedNetworkFile, and nothing
/// more. Callers borrow the store; none deletes it through this interface.
class ReadStore {
 public:
  /// Opens a read session over the store's current state. One session per
  /// thread; sessions of one store share its buffer pools.
  virtual std::unique_ptr<ReadSession> OpenReadSession() = 0;

  /// True when the store's current state holds node `id`. Reads no page,
  /// so the serving layer rejects an unstored origin at admission without
  /// charging any session.
  virtual bool Contains(NodeId id) = 0;

 protected:
  ~ReadStore() = default;
};

}  // namespace ccam

#endif  // CCAM_CORE_READ_SESSION_H_
