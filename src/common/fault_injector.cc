#include "src/common/fault_injector.h"

#include <cstdlib>

namespace ccam {

namespace {

/// FNV-1a — a stable name hash (std::hash is implementation-defined, which
/// would make per-point PCG streams differ across standard libraries).
uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed) {}

void FaultInjector::Arm(const std::string& point, const FaultAction& action,
                        const FaultTrigger& trigger) {
  std::lock_guard<std::mutex> lock(mu_);
  Point& p = points_[point];
  p.action = action;
  p.trigger = trigger;
  p.rng = Random(seed_ ^ HashName(point));
  p.hits = 0;
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.erase(point);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  log_.clear();
}

std::optional<FaultAction> FaultInjector::Hit(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (suppress_depth_ > 0) return std::nullopt;
  auto it = points_.find(point);
  if (it == points_.end()) return std::nullopt;
  Point& p = it->second;
  uint64_t hit = ++p.hits;
  bool fire = false;
  switch (p.trigger.mode) {
    case FaultTrigger::Mode::kOnce:
      fire = hit == p.trigger.n;
      break;
    case FaultTrigger::Mode::kFrom:
      fire = hit >= p.trigger.n;
      break;
    case FaultTrigger::Mode::kEvery:
      fire = p.trigger.n > 0 && hit % p.trigger.n == 0;
      break;
    case FaultTrigger::Mode::kProb:
      // One Bernoulli draw per hit keeps the per-point stream in lockstep
      // with the hit count, so the firing sequence is seed-deterministic.
      fire = p.rng.Bernoulli(p.trigger.p);
      break;
  }
  if (!fire) return std::nullopt;
  log_.push_back({point, hit});
  return p.action;
}

uint64_t FaultInjector::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

std::vector<FaultFiring> FaultInjector::FiringLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

void FaultInjector::Suppress() {
  std::lock_guard<std::mutex> lock(mu_);
  ++suppress_depth_;
}

void FaultInjector::Unsuppress() {
  std::lock_guard<std::mutex> lock(mu_);
  --suppress_depth_;
}

FaultInjector::SuppressScope::SuppressScope(FaultInjector* injector)
    : injector_(injector) {
  if (injector_ != nullptr) injector_->Suppress();
}

FaultInjector::SuppressScope::~SuppressScope() {
  if (injector_ != nullptr) injector_->Unsuppress();
}

Status FaultInjector::Configure(const std::string& spec) {
  auto fail = [&](const std::string& why) {
    return Status::InvalidArgument("fault schedule '" + spec + "': " + why);
  };
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail("entry '" + entry + "' is not <point>=<action>");
    }
    std::string point = entry.substr(0, eq);
    std::string rest = entry.substr(eq + 1);

    FaultTrigger trigger = FaultTrigger::Once(1);
    size_t at = rest.rfind('@');
    if (at != std::string::npos) {
      std::string t = rest.substr(at + 1);
      rest.resize(at);
      if (t.empty()) return fail("empty trigger for '" + point + "'");
      if (t[0] == 'p') {
        char* parse_end = nullptr;
        double p = std::strtod(t.c_str() + 1, &parse_end);
        if (parse_end == nullptr || *parse_end != '\0' || p < 0.0 || p > 1.0) {
          return fail("bad probability trigger '@" + t + "'");
        }
        trigger = FaultTrigger::Prob(p);
      } else {
        bool every = t.rfind("every", 0) == 0;
        std::string num = every ? t.substr(5) : t;
        bool from = !num.empty() && num.back() == '+';
        if (from) num.pop_back();
        char* parse_end = nullptr;
        uint64_t n = std::strtoull(num.c_str(), &parse_end, 10);
        if (num.empty() || parse_end == nullptr || *parse_end != '\0' ||
            n == 0 || (every && from)) {
          return fail("bad trigger '@" + t + "'");
        }
        trigger = every ? FaultTrigger::Every(n)
                        : (from ? FaultTrigger::From(n)
                                : FaultTrigger::Once(n));
      }
    }

    FaultAction action;
    std::string kind = rest;
    std::string arg;
    size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      kind = rest.substr(0, colon);
      arg = rest.substr(colon + 1);
    }
    auto parse_bytes = [&](size_t* out) {
      char* parse_end = nullptr;
      uint64_t v = std::strtoull(arg.c_str(), &parse_end, 10);
      if (arg.empty() || parse_end == nullptr || *parse_end != '\0') {
        return false;
      }
      *out = static_cast<size_t>(v);
      return true;
    };
    if (kind == "error") {
      action.kind = FaultAction::Kind::kError;
      if (arg.empty() || arg == "io") {
        action.code = Status::Code::kIOError;
      } else if (arg == "corruption") {
        action.code = Status::Code::kCorruption;
      } else if (arg == "notfound") {
        action.code = Status::Code::kNotFound;
      } else {
        return fail("unknown error code '" + arg + "'");
      }
    } else if (kind == "short" || kind == "torn") {
      action.kind = FaultAction::Kind::kShort;
      if (!parse_bytes(&action.bytes)) {
        return fail(kind + " needs ':<bytes>'");
      }
    } else if (kind == "nospace") {
      action.kind = FaultAction::Kind::kNoSpace;
      if (!arg.empty()) return fail("nospace takes no argument");
    } else if (kind == "crash") {
      action.kind = FaultAction::Kind::kCrash;
      if (!parse_bytes(&action.bytes)) return fail("crash needs ':<bytes>'");
    } else {
      return fail("unknown action '" + kind + "'");
    }
    Arm(point, action, trigger);
  }
  return Status::OK();
}

const std::vector<FailpointInfo>& FaultInjector::Catalog() {
  // Hand-maintained: the injector has no central registration, so this is
  // the authoritative list of names code actually passes to Hit().
  static const std::vector<FailpointInfo> kCatalog = {
      {"disk.read", "DiskManager::ReadPage (data disk)",
       "error/short/crash; short fills the buffer tail with garbage"},
      {"disk.write", "DiskManager::WritePage (data disk)",
       "error/short(torn)/nospace/crash; torn keeps the page's old tail"},
      {"disk.alloc", "DiskManager::AllocatePage (data disk)",
       "error/nospace"},
      {"disk.free", "DiskManager::FreePage (data disk)", "error"},
      {"index.read", "ReadPage on the index disk (NetworkFile B+-tree)",
       "same actions as disk.read"},
      {"index.write", "WritePage on the index disk",
       "same actions as disk.write"},
      {"index.alloc", "AllocatePage on the index disk", "error/nospace"},
      {"index.free", "FreePage on the index disk", "error"},
      {"hier.read", "ReadPage on the hierarchy-overlay disk",
       "same actions as disk.read"},
      {"hier.write", "WritePage on the hierarchy-overlay disk",
       "same actions as disk.write"},
      {"hier.alloc", "AllocatePage on the hierarchy-overlay disk",
       "error/nospace"},
      {"hier.free", "FreePage on the hierarchy-overlay disk", "error"},
      {"snapshot.log.append", "DeltaLog::Append frame write",
       "error/short(torn frame tail)/nospace/crash"},
      {"snapshot.log.flush", "DeltaLog::Flush durability barrier",
       "error/crash"},
      {"snapshot.build", "SnapshotManager snapshot-image build "
       "(hit before and after the image write)",
       "error/crash(torn image)"},
      {"snapshot.publish", "SnapshotManager publish "
       "(hit before tmp write, before rename, after commit point)",
       "error/crash(torn manifest)"},
      {"snapshot.retire", "SnapshotManager version retirement "
       "(hit before unlink, around manifest rewrite, after rename)",
       "error/crash(torn manifest)"},
  };
  return kCatalog;
}

}  // namespace ccam
