#ifndef CCAM_BENCH_BENCH_UTIL_H_
#define CCAM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "src/baseline/grid_am.h"
#include "src/baseline/order_am.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"

namespace ccam {
namespace bench {

/// The access methods compared throughout the paper's Section 4.
enum class Method {
  kCcamS,
  kCcamD,
  kDfs,
  kWdfs,
  kGrid,
  kBfs,
};

inline const char* MethodName(Method m) {
  switch (m) {
    case Method::kCcamS:
      return "CCAM-S";
    case Method::kCcamD:
      return "CCAM-D";
    case Method::kDfs:
      return "DFS-AM";
    case Method::kWdfs:
      return "WDFS-AM";
    case Method::kGrid:
      return "Grid File";
    case Method::kBfs:
      return "BFS-AM";
  }
  return "?";
}

inline std::vector<Method> AllMethods() {
  return {Method::kCcamS, Method::kCcamD, Method::kDfs,
          Method::kWdfs,  Method::kGrid,  Method::kBfs};
}

inline std::unique_ptr<NetworkFile> MakeMethod(
    Method m, const AccessMethodOptions& options) {
  switch (m) {
    case Method::kCcamS:
      return std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
    case Method::kCcamD:
      return std::make_unique<Ccam>(options, CcamCreateMode::kIncremental);
    case Method::kDfs:
      return std::make_unique<OrderAm>(options, NodeOrderKind::kDfs);
    case Method::kWdfs:
      return std::make_unique<OrderAm>(options, NodeOrderKind::kWeightedDfs);
    case Method::kGrid:
      return std::make_unique<GridAm>(options);
    case Method::kBfs:
      return std::make_unique<OrderAm>(options, NodeOrderKind::kBfs);
  }
  return nullptr;
}

/// The paper's evaluation network (see DESIGN.md for the substitution).
inline Network PaperNetwork() { return GenerateMinneapolisLikeMap(1995); }

/// Markdown-style table printer for the experiment binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Thread counts for clustering sweeps. Defaults to {1, 2, 4, 8};
/// override with a comma-separated CCAM_BENCH_THREADS (e.g. "1,16").
/// Page assignments are bit-identical at every count, so the sweep only
/// varies wall-clock, never CRR.
inline std::vector<int> BenchThreadCounts() {
  std::vector<int> counts;
  if (const char* env = std::getenv("CCAM_BENCH_THREADS")) {
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v > 0) counts.push_back(static_cast<int>(v));
      p = (*end == ',') ? end + 1 : end;
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

inline std::string Fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// Directory every bench writes its BENCH_<name>.json into: the
/// CCAM_BENCH_JSON_DIR override when set, else the repository root (the
/// nearest ancestor of the working directory holding ROADMAP.md or .git),
/// else the working directory — so the artifacts land in one predictable
/// place no matter where the binary was launched from.
inline std::string BenchJsonDir() {
  if (const char* env = std::getenv("CCAM_BENCH_JSON_DIR")) {
    if (env[0] != '\0') return env;
  }
  std::string dir = ".";
  for (int depth = 0; depth < 16; ++depth) {
    for (const char* marker : {"/ROADMAP.md", "/.git"}) {
      std::FILE* f = std::fopen((dir + marker).c_str(), "r");
      if (f != nullptr) {
        std::fclose(f);
        return dir;
      }
    }
    dir += "/..";
  }
  return ".";
}

/// Uniform machine-readable export for the experiment binaries: every
/// bench emits one BENCH_<name>.json at the repository root with the
/// schema
///
///   {"bench": "<name>", "schema_version": 1,
///    "records": [{"table": "<tag>", "<column>": <value>, ...}, ...]}
///
/// Records come from the same TablePrinter tables the bench prints, so the
/// human-readable and machine-readable outputs can never drift apart.
/// Column headers are sanitized into keys (lowercased, non-alphanumerics
/// collapsed to "_": "p50 us" -> "p50_us"); cells that parse fully as
/// numbers are emitted as JSON numbers, "true"/"false" as booleans,
/// everything else as strings. scripts/check_perf.sh diffs two of these
/// files record by record.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}

  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  ~BenchJsonWriter() {
    if (!written_) Write();
  }

  static std::string SanitizeKey(const std::string& header) {
    std::string key;
    for (char c : header) {
      if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
        key += c;
      } else if (c >= 'A' && c <= 'Z') {
        key += static_cast<char>(c - 'A' + 'a');
      } else if (!key.empty() && key.back() != '_') {
        key += '_';
      }
    }
    while (!key.empty() && key.back() == '_') key.pop_back();
    return key.empty() ? "col" : key;
  }

  /// One record per table row, keyed by the sanitized column headers and
  /// tagged with `tag` so multiple tables of one bench stay separable.
  /// Columns named in `stdout_only` (wall-clock: host noise, not a
  /// result) are printed but left out of the records.
  void AddTable(const std::string& tag, const TablePrinter& table,
                const std::vector<std::string>& stdout_only = {}) {
    std::vector<std::string> keys;
    keys.reserve(table.headers().size());
    for (const auto& h : table.headers()) keys.push_back(SanitizeKey(h));
    for (const auto& row : table.rows()) {
      std::string rec = "{\"table\": " + Quote(tag);
      for (size_t c = 0; c < keys.size(); ++c) {
        if (std::find(stdout_only.begin(), stdout_only.end(),
                      table.headers()[c]) != stdout_only.end()) {
          continue;
        }
        const std::string& cell = c < row.size() ? row[c] : std::string();
        rec += ", \"" + keys[c] + "\": " + EncodeValue(cell);
      }
      rec += "}";
      records_.push_back(std::move(rec));
    }
  }

  /// One ad-hoc record (benches whose results are not tabular). Values go
  /// through the same number/bool/string detection as table cells.
  void AddRecord(
      const std::string& tag,
      const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string rec = "{\"table\": " + Quote(tag);
    for (const auto& [key, value] : fields) {
      rec += ", \"" + SanitizeKey(key) + "\": " + EncodeValue(value);
    }
    rec += "}";
    records_.push_back(std::move(rec));
  }

  /// Writes BENCH_<name>.json (also called by the destructor). Returns
  /// false when the file cannot be created.
  bool Write() {
    written_ = true;
    std::string path = BenchJsonDir() + "/BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\"bench\": %s, \"schema_version\": 1, \"records\": [",
                 Quote(name_).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(out, "%s\n  %s", i == 0 ? "" : ",", records_[i].c_str());
    }
    std::fprintf(out, "\n]}\n");
    std::fclose(out);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return true;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      switch (c) {
        case '"':
          q += "\\\"";
          break;
        case '\\':
          q += "\\\\";
          break;
        case '\n':
          q += "\\n";
          break;
        case '\t':
          q += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            q += buf;
          } else {
            q += c;
          }
      }
    }
    q += "\"";
    return q;
  }

  static std::string EncodeValue(const std::string& cell) {
    if (cell == "true" || cell == "false") return cell;
    if (cell == "yes") return "true";
    if (cell == "no") return "false";
    if (!cell.empty()) {
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      // A fully-consumed, finite parse is a number ("inf"/"nan" parse but
      // are not valid JSON tokens — keep them as strings).
      if (end != nullptr && *end == '\0' && end != cell.c_str() &&
          std::isfinite(v)) {
        return cell;
      }
    }
    return Quote(cell);
  }

  std::string name_;
  std::vector<std::string> records_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace ccam

#endif  // CCAM_BENCH_BENCH_UTIL_H_
