#include "obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "util/contract.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace braidio::obs {

namespace {

// Power series stop extending past this many buckets per key; posts
// beyond it count toward series_skipped(). 64Ki buckets at the default
// 1 s bucket covers ~18 hours of simulated time per key.
constexpr std::size_t kMaxSeriesBuckets = std::size_t{1} << 16;

// A profile finds a path's slot by a linear scan up to this many paths
// and through an id -> position index past it. Measured on a Xeon vCPU,
// a scan beats the hash lookup up to about 8 paths and trails it by
// under 2 ns at 16, so a sweep point's profile (about ten paths) never
// builds an index; a scan-only attributed 3,000-tag TDMA star (9,005
// paths) took 2.4x as long as the indexed run.
constexpr std::size_t kLinearScanPaths = 16;

// Span labels may not contain the path separator ('/'), the collapsed-
// stack frame separator (';'), the collapsed-stack value separator
// (' '), or control characters — replace them so every exporter stays
// parseable no matter what label a caller passes.
void append_sanitized(std::string& out, const char* label) {
  for (const char* p = label; *p != '\0'; ++p) {
    const char c = *p;
    const bool bad = c == '/' || c == ';' || c == ' ' ||
                     static_cast<unsigned char>(c) < 0x20;
    out += bad ? '_' : c;
  }
}

/// An interned path and the id of its power-series key (its first two
/// segments, or the whole path when it has fewer).
struct Interned {
  PathId id = 0;
  PathId key = 0;
};

/// The process-wide, append-only path table. Id 0 is the empty root.
/// Every access takes the mutex; the thread-local memo below keeps warm
/// posts away from it. Entries live in a deque, so a path string, once
/// interned, never moves or changes.
class PathTable {
 public:
  PathTable() {
    entries_.push_back({std::string(), 0});
    ids_.emplace(std::string(), 0);
  }

  /// Intern `path` verbatim.
  Interned intern(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    return intern_locked(path);
  }

  /// Intern `<parent's path>/<label, sanitized>` (just the label under
  /// the root).
  Interned intern_child(PathId parent, const char* label) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string path = entries_[parent].path;
    if (!path.empty()) path += '/';
    append_sanitized(path, label);
    return intern_locked(path);
  }

  /// Pair every item's path with its position, in path order: exporters
  /// walk this view, so no export depends on interning order.
  template <typename Item>
  std::vector<std::pair<const std::string*, std::size_t>> sorted(
      const std::vector<Item>& items) {
    std::vector<std::pair<const std::string*, std::size_t>> view;
    view.reserve(items.size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < items.size(); ++i) {
        view.emplace_back(&entries_[items[i].id].path, i);
      }
    }
    std::sort(view.begin(), view.end(), [](const auto& a, const auto& b) {
      return *a.first < *b.first;
    });
    return view;
  }

 private:
  struct Entry {
    std::string path;
    PathId key;
  };

  Interned intern_locked(const std::string& path) {
    if (const auto it = ids_.find(path); it != ids_.end()) {
      return {it->second, entries_[it->second].key};
    }
    // The series key is interned first, so `id` below is this path's.
    const std::size_t first = path.find('/');
    const std::size_t second =
        first == std::string::npos ? first : path.find('/', first + 1);
    const PathId key = second == std::string::npos
                           ? static_cast<PathId>(entries_.size())
                           : intern_locked(path.substr(0, second)).id;
    BRAIDIO_REQUIRE(entries_.size() < std::numeric_limits<PathId>::max(),
                    "interned_paths", entries_.size());
    const auto id = static_cast<PathId>(entries_.size());
    entries_.push_back({path, key});
    ids_.emplace(path, id);
    return {id, key};
  }

  std::mutex mu_;
  std::deque<Entry> entries_;
  std::unordered_map<std::string, PathId> ids_;
};

PathTable& path_table() {
  static PathTable table;
  return table;
}

/// A thread's memo of (parent id, raw label bytes) -> child path: an
/// open-addressed table with linear probing, doubled at half load. Each
/// slot keeps its own copy of the label's bytes and never keys on the
/// label's address, so one buffer rewritten with different labels still
/// finds each label's own child. A warm lookup hashes the label once
/// (FNV-1a), then compares the parent, the length and the bytes; it
/// builds no string and takes no lock.
class ChildMemo {
 public:
  ChildMemo() : slots_(kFirstSlots) {}

  Interned child_of(PathId parent, const char* label) {
    std::uint64_t h = 0xcbf29ce484222325;  // FNV-1a offset basis
    const char* end = label;
    for (; *end != '\0'; ++end) {
      h = (h ^ static_cast<unsigned char>(*end)) * kFnvPrime;
    }
    h = (h ^ parent) * kFnvPrime;
    const auto hash = static_cast<std::uint32_t>(h ^ (h >> 32));
    const auto length = static_cast<std::size_t>(end - label);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.child.id == 0) break;
      if (slot.hash == hash && slot.parent == parent &&
          slot.length == length &&
          std::memcmp(bytes_.data() + slot.offset, label, length) == 0) {
        return slot.child;
      }
    }
    const Interned child = path_table().intern_child(parent, label);
    // Id 0 marks an empty slot. Only the root has it (an empty label
    // under the root), and that lookup is not memoized.
    if (child.id != 0) {
      if (2 * (used_ + 1) > slots_.size()) grow();
      place(Slot{bytes_.size(), length, hash, parent, child});
      bytes_.append(label, length);
      ++used_;
    }
    return child;
  }

 private:
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3;
  static constexpr std::size_t kFirstSlots = 64;

  struct Slot {
    std::size_t offset = 0;  // the label's bytes in bytes_
    std::size_t length = 0;
    std::uint32_t hash = 0;
    PathId parent = 0;
    Interned child;  // id 0: empty
  };

  void place(const Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].child.id != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
    for (const Slot& slot : old) {
      if (slot.child.id != 0) place(slot);
    }
  }

  std::vector<Slot> slots_;
  std::string bytes_;
  std::size_t used_ = 0;
};

thread_local ChildMemo t_memo;

/// The item with path id `id` in a profile's flat storage, appended
/// (zero-valued) when absent.
template <typename Item>
Item& find_or_add(std::vector<Item>& items,
                  std::unordered_map<PathId, std::uint32_t>& index,
                  PathId id) {
  if (index.empty()) {
    for (Item& item : items) {
      if (item.id == id) return item;
    }
  } else if (const auto it = index.find(id); it != index.end()) {
    return items[it->second];
  }
  if (items.empty()) items.reserve(kLinearScanPaths);
  items.push_back(Item{id, {}});
  if (items.size() > kLinearScanPaths) {
    for (std::size_t i = index.size(); i < items.size(); ++i) {
      index.emplace(items[i].id, static_cast<std::uint32_t>(i));
    }
  }
  return items.back();
}

/// One node of the tree_report trie: its rolled-up joules and its
/// children by segment name (so siblings print in sorted order).
struct TreeNode {
  double joules = 0.0;
  std::map<std::string, std::size_t> children;
};

void print_subtree(std::ostringstream& os,
                   const std::vector<TreeNode>& nodes, std::size_t node,
                   std::size_t depth, double total) {
  for (const auto& [name, child] : nodes[node].children) {
    const double joules = nodes[child].joules;
    const double share = total > 0.0 ? joules / total : 0.0;
    os << std::string(2 * (depth + 1), ' ') << name << "  "
       << util::format_engineering(joules, 4) << "J";
    std::ostringstream pct;
    pct.precision(1);
    pct << std::fixed << 100.0 * share;
    os << "  " << pct.str() << "%\n";
    print_subtree(os, nodes, child, depth + 1, total);
  }
}

}  // namespace

void EnergyProfile::post(const std::string& path, double joules,
                         double sim_time_s) {
  BRAIDIO_REQUIRE(!path.empty(), "path_length", path.size());
  const Interned interned = path_table().intern(path);
  post_interned(interned.id, interned.key, joules, sim_time_s);
}

void EnergyProfile::post_interned(PathId id, PathId key, double joules,
                                  double sim_time_s) {
  BRAIDIO_REQUIRE(id != 0, "path_id", id);
  BRAIDIO_REQUIRE(std::isfinite(joules) && joules >= 0.0, "joules",
                  joules);
  Slot& slot = find_or_add(leaves_, leaf_index_, id).slot;
  slot.joules += joules;
  slot.posts += 1;
  if (std::isfinite(sim_time_s) && sim_time_s >= 0.0) {
    const auto bucket = static_cast<std::size_t>(
        sim_time_s / bucket_seconds_);
    if (bucket < kMaxSeriesBuckets) {
      std::vector<double>& track =
          find_or_add(series_, series_index_, key).buckets;
      if (track.size() <= bucket) track.resize(bucket + 1, 0.0);
      track[bucket] += joules;
    } else {
      ++series_skipped_;
    }
  }
}

double EnergyProfile::total_joules() const {
  double total = 0.0;
  for (const auto& [path, i] : path_table().sorted(leaves_)) {
    total += leaves_[i].slot.joules;
  }
  return total;
}

std::uint64_t EnergyProfile::total_posts() const {
  std::uint64_t total = 0;
  for (const Leaf& leaf : leaves_) total += leaf.slot.posts;
  return total;
}

std::map<std::string, EnergyProfile::Slot> EnergyProfile::entries() const {
  std::map<std::string, Slot> out;
  for (const auto& [path, i] : path_table().sorted(leaves_)) {
    out.emplace_hint(out.end(), *path, leaves_[i].slot);
  }
  return out;
}

std::map<std::string, std::vector<double>> EnergyProfile::series() const {
  std::map<std::string, std::vector<double>> out;
  for (const auto& [key, i] : path_table().sorted(series_)) {
    out.emplace_hint(out.end(), *key, series_[i].buckets);
  }
  return out;
}

void EnergyProfile::set_bucket_seconds(double seconds) {
  BRAIDIO_REQUIRE(empty(), "entries", leaves_.size());
  BRAIDIO_REQUIRE(std::isfinite(seconds) && seconds > 0.0,
                  "bucket_seconds", seconds);
  bucket_seconds_ = seconds;
}

void EnergyProfile::merge(const EnergyProfile& other) {
  if (other.leaves_.empty() && other.series_skipped_ == 0) return;
  BRAIDIO_REQUIRE(bucket_seconds_ == other.bucket_seconds_,
                  "bucket_seconds", bucket_seconds_, "other",
                  other.bucket_seconds_);
  for (const Leaf& leaf : other.leaves_) {
    Slot& mine = find_or_add(leaves_, leaf_index_, leaf.id).slot;
    mine.joules += leaf.slot.joules;
    mine.posts += leaf.slot.posts;
  }
  for (const Track& track : other.series_) {
    std::vector<double>& mine =
        find_or_add(series_, series_index_, track.id).buckets;
    if (mine.size() < track.buckets.size()) {
      mine.resize(track.buckets.size(), 0.0);
    }
    for (std::size_t b = 0; b < track.buckets.size(); ++b) {
      mine[b] += track.buckets[b];
    }
  }
  series_skipped_ += other.series_skipped_;
}

void EnergyProfile::clear() { *this = EnergyProfile(); }

std::string EnergyProfile::to_json() const {
  const auto leaves = path_table().sorted(leaves_);
  double total = 0.0;
  for (const auto& [path, i] : leaves) total += leaves_[i].slot.joules;
  std::ostringstream os;
  os << "{\n  \"schema\": \"braidio-energy-profile/v1\",\n"
     << "  \"bucket_seconds\": "
     << util::format_engineering(bucket_seconds_, 17) << ",\n"
     << "  \"total_joules\": " << util::format_engineering(total, 17) << ",\n"
     << "  \"total_posts\": " << total_posts() << ",\n"
     << "  \"series_skipped\": " << series_skipped_ << ",\n"
     << "  \"attributions\": [";
  bool first = true;
  for (const auto& [path, i] : leaves) {
    const Slot& slot = leaves_[i].slot;
    os << (first ? "" : ",") << "\n    {\"path\": \""
       << util::json_escape(*path)
       << "\", \"joules\": " << util::format_engineering(slot.joules, 17)
       << ", \"posts\": " << slot.posts << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"series\": {";
  first = true;
  for (const auto& [key, i] : path_table().sorted(series_)) {
    const std::vector<double>& track = series_[i].buckets;
    os << (first ? "" : ",") << "\n    \"" << util::json_escape(*key)
       << "\": [";
    for (std::size_t b = 0; b < track.size(); ++b) {
      os << (b ? ", " : "") << util::format_engineering(track[b], 17);
    }
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string EnergyProfile::to_collapsed_stack() const {
  std::string out;
  for (const auto& [path, i] : path_table().sorted(leaves_)) {
    std::string line = *path;
    for (char& c : line) {
      if (c == '/') c = ';';
    }
    out += line;
    out += ' ';
    // Flame-graph counts are integers; nanojoules keep sub-microjoule
    // attributions visible without losing conservation past ~0.5 nJ
    // per path. llround overflows from 2^63 nJ (9.2e9 J); a double that
    // large is already an integer, so it prints whole instead.
    const double nanojoules = leaves_[i].slot.joules * 1e9;
    out += nanojoules < 0x1p63 ? std::to_string(std::llround(nanojoules))
                               : util::format_fixed(nanojoules, 0);
    out += '\n';
  }
  return out;
}

std::string EnergyProfile::to_chrome_counters() const {
  std::ostringstream os;
  os << "{\n\"traceEvents\": [";
  bool first = true;
  for (const auto& [key, i] : path_table().sorted(series_)) {
    const std::vector<double>& track = series_[i].buckets;
    for (std::size_t b = 0; b < track.size(); ++b) {
      os << (first ? "" : ",") << "\n"
         << "{\"name\": \"power:" << util::json_escape(*key)
         << "\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": "
         << util::format_engineering(
                static_cast<double>(b) * bucket_seconds_ * 1e6, 17)
         << ", \"args\": {\"w\": "
         << util::format_engineering(track[b] / bucket_seconds_, 17) << "}}";
      first = false;
    }
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
     << "{\"bucket_seconds\": " << util::format_engineering(bucket_seconds_, 17)
     << "}\n}\n";
  return os.str();
}

std::string EnergyProfile::tree_report() const {
  // Roll leaf totals up a trie of path segments, visiting leaves in path
  // order (the summation order of total_joules), then print it parent
  // to child with siblings in sorted order.
  std::vector<TreeNode> nodes(1);  // nodes[0] is the root
  double total = 0.0;
  for (const auto& [path, i] : path_table().sorted(leaves_)) {
    const double joules = leaves_[i].slot.joules;
    total += joules;
    std::size_t node = 0;
    std::size_t from = 0;
    while (true) {
      const std::size_t slash = path->find('/', from);
      const auto [it, added] = nodes[node].children.try_emplace(
          path->substr(from, slash == std::string::npos ? slash
                                                        : slash - from),
          nodes.size());
      node = it->second;
      if (added) nodes.emplace_back();
      nodes[node].joules += joules;
      if (slash == std::string::npos) break;
      from = slash + 1;
    }
  }
  std::ostringstream os;
  os << "energy attribution: " << util::format_engineering(total, 4)
     << "J over " << total_posts() << " posts\n";
  print_subtree(os, nodes, 0, 0, total);
  return os.str();
}

// ---------------------------------------------------------------------
// Hook plumbing: thread-local span stack + scoped profile + global.
// ---------------------------------------------------------------------

namespace detail {
std::atomic<bool> g_attribution_enabled{false};
}  // namespace detail

namespace {

// The current thread's open spans, innermost last: each frame is the
// interned path of the spans so far, so a post only interns its category
// under the top frame.
thread_local std::vector<PathId> t_spans;

thread_local EnergyProfile* t_profile = nullptr;

PathId top_span() { return t_spans.empty() ? 0 : t_spans.back(); }

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

EnergyProfile& global_profile() {
  static EnergyProfile profile;
  return profile;
}

}  // namespace

void set_attribution_enabled(bool on) {
  detail::g_attribution_enabled.store(on, std::memory_order_relaxed);
}

EnergyProfile* current_energy_profile() { return t_profile; }

ScopedEnergyProfile::ScopedEnergyProfile(EnergyProfile* profile)
    : previous_(t_profile) {
  t_profile = profile;
}

ScopedEnergyProfile::~ScopedEnergyProfile() { t_profile = previous_; }

EnergyProfile global_energy_profile_snapshot() {
  std::lock_guard<std::mutex> lock(global_mu());
  return global_profile();
}

void reset_global_energy_profile() {
  std::lock_guard<std::mutex> lock(global_mu());
  global_profile().clear();
}

namespace detail {

void push_span(const char* label) {
  t_spans.push_back(t_memo.child_of(top_span(), label).id);
}

void pop_span() {
  BRAIDIO_REQUIRE(!t_spans.empty(), "span_depth", t_spans.size());
  t_spans.pop_back();
}

void post_energy_slow(const char* category, double joules,
                      double sim_time_s) {
  const Interned leaf = t_memo.child_of(top_span(), category);
  if (EnergyProfile* p = t_profile) {
    p->post_interned(leaf.id, leaf.key, joules, sim_time_s);
    return;
  }
  std::lock_guard<std::mutex> lock(global_mu());
  global_profile().post_interned(leaf.id, leaf.key, joules, sim_time_s);
}

}  // namespace detail

}  // namespace braidio::obs
