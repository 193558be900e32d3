#include "src/serve/scheduler.h"

#include <utility>

namespace ccam {
namespace serve {

void DrrScheduler::Enqueue(QueuedRequest item) {
  std::deque<QueuedRequest>& q = tenants_[item.request.tenant];
  if (q.empty()) ring_.push_back(item.request.tenant);
  q.push_back(std::move(item));
  ++depth_;
}

bool DrrScheduler::Pop(QueuedRequest* out) {
  if (ring_.empty()) return false;
  if (cursor_ >= ring_.size()) cursor_ = 0;
  if (turn_left_ == 0) turn_left_ = quantum_;  // the tenant's turn starts
  std::deque<QueuedRequest>& q = tenants_[ring_[cursor_]];
  *out = std::move(q.front());
  q.pop_front();
  --depth_;
  --turn_left_;
  if (q.empty()) {
    // Drained: the tenant leaves the ring and banks nothing; the cursor
    // now names the next tenant.
    ring_.erase(ring_.begin() + cursor_);
    turn_left_ = 0;
  } else if (turn_left_ == 0) {
    ++cursor_;
  }
  return true;
}

void DrrScheduler::DrainAll(std::vector<QueuedRequest>* out) {
  for (uint32_t tenant : ring_) {
    for (QueuedRequest& item : tenants_[tenant]) out->push_back(std::move(item));
    tenants_[tenant].clear();
  }
  ring_.clear();
  cursor_ = 0;
  turn_left_ = 0;
  depth_ = 0;
}

size_t DrrScheduler::TenantDepth(uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.size();
}

}  // namespace serve
}  // namespace ccam
