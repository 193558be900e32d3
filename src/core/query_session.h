#ifndef CCAM_CORE_QUERY_SESSION_H_
#define CCAM_CORE_QUERY_SESSION_H_

#include <string>
#include <vector>

#include "src/core/network_file.h"
#include "src/core/read_session.h"

namespace ccam {

/// A read-only query stream over a shared NetworkFile: reads go through
/// the file's thread-safe shared path and data-page accesses are counted
/// per session, preserving the paper's accounting convention for each
/// concurrent stream. Sessions never run concurrently with mutations of
/// the file. The read prologue, thread contract and accounting are
/// ReadSession's.
class QuerySession : public ReadSession {
 public:
  explicit QuerySession(NetworkFile* file) : file_(file) {}

  std::string Name() const override { return file_->Name() + "/session"; }

  /// Overlay reads follow the per-session convention too: a fetch is
  /// charged to HierarchyIoStats() iff it missed the overlay's shared pool.
  bool HasHierarchy() const override { return file_->HasHierarchy(); }

  const NodePageMap& PageMap() const override { return file_->PageMap(); }
  BufferPool* buffer_pool() override { return file_->buffer_pool(); }
  size_t NumDataPages() const override { return file_->NumDataPages(); }

  NetworkFile* file() const { return file_; }

  /// Read-ahead loads are this session's misses: charged to DataIoStats().
  size_t ReadAhead(const ReadHint* hints, size_t n) override {
    DebugCheckThread();
    return file_->SharedReadAhead(hints, n, &io_);
  }

  /// Sessions inherit the file's registry, so "query.*" spans from every
  /// concurrent stream land in the same catalog.
  MetricsRegistry* metrics() const override { return file_->metrics(); }

 protected:
  Result<NodeRecord> DoFind(NodeId id) override {
    return file_->SharedFind(id, &io_);
  }
  Result<NodeRecord> DoGetASuccessor(NodeId from, NodeId to) override {
    return file_->SharedGetASuccessor(from, to, &io_);
  }
  Result<std::vector<NodeRecord>> DoGetSuccessors(NodeId id) override {
    return file_->SharedGetSuccessors(id, &io_);
  }
  Result<HierarchyNodeRecord> DoHierarchyNode(NodeId id) override {
    return file_->SharedHierarchyNode(id, &hier_io_);
  }

 private:
  NetworkFile* file_;
};

}  // namespace ccam

#endif  // CCAM_CORE_QUERY_SESSION_H_
