#include "src/fmt/strategy_binary.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_parts_internal.h"
#include "src/core/strategy_text_internal.h"
#include "src/fmt/varint.h"

namespace btr {
namespace fmt {
namespace {

using strategy_text::BodyDims;
using strategy_text::Parts;
using strategy_text::PlausibleFloatField;
using strategy_text::ValidFaultNodeList;

Status BadImage(const std::string& why) {
  return Status::InvalidArgument("strategy image: " + why);
}
Status BadEncode(const std::string& why) {
  return Status::InvalidArgument("v4 encode: " + why);
}

// Body payload flags: which sections are delta-coded against the parent.
constexpr uint64_t kFlagDeltaP = 1;
constexpr uint64_t kFlagDeltaT = 2;
constexpr uint64_t kFlagDeltaB = 4;
constexpr uint64_t kFlagMask = 7;

// Dimensions, body counts, and mode counts all describe one target graph;
// anything above this is a forged header.
constexpr uint64_t kDimLimit = uint64_t{1} << 32;

struct PRow {
  uint64_t aug = 0;
  uint64_t node = 0;
  uint64_t start = 0;
  bool operator==(const PRow&) const = default;
};

using TableRow = std::array<uint64_t, 3>;  // job, start, duration
using Pair = std::pair<uint64_t, uint64_t>;

// A body's records in dictionary-referenced form: the U text and each run
// of same-node T rows live in the shared dictionaries; everything else is
// the integer rows themselves, in file order.
struct BodyRecords {
  uint64_t u_ref = 0;
  std::vector<PRow> p;
  std::vector<uint64_t> s;
  std::vector<Pair> t;  // (node, table dict ref), one per run of T rows
  std::vector<Pair> b;  // (edge idx, budget)
};

// Patch images carry BCOPY references alongside BNEW record bodies.
struct DecodedBody {
  bool copy = false;
  uint64_t old_id = 0;
  BodyRecords records;
};

struct Dicts {
  std::vector<std::string> strings;
  std::vector<std::vector<TableRow>> tables;
};

struct DictBuilder {
  Dicts dicts;
  std::map<std::string, uint64_t> string_ids;
  std::map<std::vector<TableRow>, uint64_t> table_ids;

  uint64_t StringRef(std::string s) {
    auto [it, inserted] = string_ids.try_emplace(std::move(s), dicts.strings.size());
    if (inserted) {
      dicts.strings.push_back(it->first);
    }
    return it->second;
  }
  uint64_t TableRef(std::vector<TableRow> rows) {
    auto [it, inserted] = table_ids.try_emplace(std::move(rows), dicts.tables.size());
    if (inserted) {
      dicts.tables.push_back(it->first);
    }
    return it->second;
  }
};

bool StrictlyAscendingByAug(const std::vector<PRow>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i].aug <= v[i - 1].aug) {
      return false;
    }
  }
  return true;
}

bool StrictlyAscendingByKey(const std::vector<Pair>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i].first <= v[i - 1].first) {
      return false;
    }
  }
  return true;
}

// ---- body chunk <-> records ---------------------------------------------

// Parses a validated canonical body chunk (U, P*, S*, T*, B*, END — the
// writer's record order) into dictionary-referenced records. Rejects any
// other record ordering: the delta coder relies on the canonical shape,
// and non-canonical chunks never come out of SaveStrategy / ExtractSlice.
Status ParseChunk(const std::string& chunk, const BodyDims& dims, DictBuilder* dicts,
                  BodyRecords* out) {
  strategy_text::LineScanner scan(chunk);
  std::string_view line;
  int stage = 0;  // 0 = expect U, then 1 P, 2 S, 3 T, 4 B
  bool saw_end = false;
  uint64_t run_node = 0;
  std::vector<TableRow> run_rows;
  const auto flush_run = [&] {
    if (!run_rows.empty()) {
      out->t.emplace_back(run_node, dicts->TableRef(std::move(run_rows)));
      run_rows.clear();
    }
  };
  std::vector<std::string_view> f;
  while (strategy_text::NextTerminatedLine(&scan, &line)) {
    if (saw_end) {
      return BadEncode("records after END");
    }
    if (line == "END") {
      flush_run();
      saw_end = true;
      continue;
    }
    if (!strategy_text::SplitFields(line, &f)) {
      return BadEncode("bad record line");
    }
    uint64_t v0 = 0;
    uint64_t v1 = 0;
    uint64_t v2 = 0;
    uint64_t v3 = 0;
    if (f[0] == "U") {
      if (stage != 0 || f.size() != 2 || !PlausibleFloatField(f[1])) {
        return BadEncode("non-canonical U record");
      }
      out->u_ref = dicts->StringRef(std::string(f[1]));
      stage = 1;
    } else if (f[0] == "P") {
      if (stage != 1 || f.size() != 4 || !strategy_text::ParseU64(f[1], &v0) ||
          v0 >= dims.aug_count || !strategy_text::ParseU64(f[2], &v1) ||
          v1 >= dims.node_count || !strategy_text::ParseU64(f[3], &v2)) {
        return BadEncode("non-canonical P record");
      }
      out->p.push_back(PRow{v0, v1, v2});
    } else if (f[0] == "S") {
      if (stage < 1 || stage > 2 || f.size() != 2 || !strategy_text::ParseU64(f[1], &v0)) {
        return BadEncode("non-canonical S record");
      }
      out->s.push_back(v0);
      stage = 2;
    } else if (f[0] == "T") {
      if (stage < 1 || stage > 3 || f.size() != 5 || !strategy_text::ParseU64(f[1], &v0) ||
          v0 >= dims.node_count || !strategy_text::ParseU64(f[2], &v1) ||
          v1 >= dims.aug_count || !strategy_text::ParseU64(f[3], &v2) ||
          !strategy_text::ParseU64(f[4], &v3)) {
        return BadEncode("non-canonical T record");
      }
      if (!run_rows.empty() && v0 != run_node) {
        flush_run();
      }
      run_node = v0;
      run_rows.push_back(TableRow{v1, v2, v3});
      stage = 3;
    } else if (f[0] == "B") {
      if (stage < 1 || stage > 4 || f.size() != 3 || !strategy_text::ParseU64(f[1], &v0) ||
          v0 >= dims.edge_count || !strategy_text::ParseU64(f[2], &v1)) {
        return BadEncode("non-canonical B record");
      }
      if (stage != 4) {
        flush_run();
      }
      out->b.emplace_back(v0, v1);
      stage = 4;
    } else {
      return BadEncode("unknown body record");
    }
  }
  if (!saw_end || !scan.AtEnd()) {
    return BadEncode("unterminated body chunk");
  }
  if (stage == 0) {
    return BadEncode("body missing U record");
  }
  return Status::Ok();
}

// Renders records back to the canonical chunk text — the exact inverse of
// ParseChunk (raw sections preserve file order; delta sections were only
// chosen for canonically sorted bodies, where sorted order IS file order).
std::string RenderChunk(const BodyRecords& rec, const Dicts& dicts) {
  size_t t_rows = 0;
  for (const Pair& run : rec.t) {
    t_rows += dicts.tables[run.second].size();
  }
  std::string out;
  out.reserve(16 + dicts.strings[rec.u_ref].size() +
              24 * (rec.p.size() + rec.s.size() + t_rows + rec.b.size()));
  // Appends " <v>" without a temporary string.
  const auto field = [&out](uint64_t v) {
    char buf[24] = {' '};
    char* end = std::to_chars(buf + 1, buf + sizeof(buf), v).ptr;
    out.append(buf, end);
  };
  out += "U ";
  out += dicts.strings[rec.u_ref];
  out += '\n';
  for (const PRow& row : rec.p) {
    out += 'P';
    field(row.aug);
    field(row.node);
    field(row.start);
    out += '\n';
  }
  for (uint64_t sink : rec.s) {
    out += 'S';
    field(sink);
    out += '\n';
  }
  for (const Pair& run : rec.t) {
    for (const TableRow& row : dicts.tables[run.second]) {
      out += 'T';
      field(run.first);
      field(row[0]);
      field(row[1]);
      field(row[2]);
      out += '\n';
    }
  }
  for (const Pair& budget : rec.b) {
    out += 'B';
    field(budget.first);
    field(budget.second);
    out += '\n';
  }
  out += "END\n";
  return out;
}

// ---- delta coding --------------------------------------------------------

void DiffPairs(const std::vector<Pair>& parent, const std::vector<Pair>& child,
               std::vector<uint64_t>* removed, std::vector<Pair>* changed) {
  size_t i = 0;
  size_t j = 0;
  while (i < parent.size() || j < child.size()) {
    if (j == child.size() || (i < parent.size() && parent[i].first < child[j].first)) {
      removed->push_back(parent[i].first);
      ++i;
    } else if (i == parent.size() || child[j].first < parent[i].first) {
      changed->push_back(child[j]);
      ++j;
    } else {
      if (parent[i].second != child[j].second) {
        changed->push_back(child[j]);
      }
      ++i;
      ++j;
    }
  }
}

void DiffP(const std::vector<PRow>& parent, const std::vector<PRow>& child,
           std::vector<uint64_t>* removed, std::vector<PRow>* changed) {
  size_t i = 0;
  size_t j = 0;
  while (i < parent.size() || j < child.size()) {
    if (j == child.size() || (i < parent.size() && parent[i].aug < child[j].aug)) {
      removed->push_back(parent[i].aug);
      ++i;
    } else if (i == parent.size() || child[j].aug < parent[i].aug) {
      changed->push_back(child[j]);
      ++j;
    } else {
      if (!(parent[i] == child[j])) {
        changed->push_back(child[j]);
      }
      ++i;
      ++j;
    }
  }
}

// result = (parent \ removed) overridden/extended by changed, key-sorted.
// Every removed key must name a surviving parent entry, so a forged delta
// cannot silently no-op.
Status MergePairs(const std::vector<Pair>& parent, const std::vector<uint64_t>& removed,
                  const std::vector<Pair>& changed, std::vector<Pair>* out) {
  size_t i = 0;
  size_t r = 0;
  size_t c = 0;
  while (i < parent.size() || c < changed.size()) {
    if (c < changed.size() && (i == parent.size() || changed[c].first <= parent[i].first)) {
      if (i < parent.size() && parent[i].first == changed[c].first) {
        ++i;
      }
      out->push_back(changed[c++]);
    } else {
      if (r < removed.size() && removed[r] == parent[i].first) {
        ++r;
        ++i;
        continue;
      }
      out->push_back(parent[i++]);
    }
  }
  if (r != removed.size()) {
    return BadImage("delta removes unknown key");
  }
  return Status::Ok();
}

Status MergeP(const std::vector<PRow>& parent, const std::vector<uint64_t>& removed,
              const std::vector<PRow>& changed, std::vector<PRow>* out) {
  size_t i = 0;
  size_t r = 0;
  size_t c = 0;
  while (i < parent.size() || c < changed.size()) {
    if (c < changed.size() && (i == parent.size() || changed[c].aug <= parent[i].aug)) {
      if (i < parent.size() && parent[i].aug == changed[c].aug) {
        ++i;
      }
      out->push_back(changed[c++]);
    } else {
      if (r < removed.size() && removed[r] == parent[i].aug) {
        ++r;
        ++i;
        continue;
      }
      out->push_back(parent[i++]);
    }
  }
  if (r != removed.size()) {
    return BadImage("delta removes unknown key");
  }
  return Status::Ok();
}

// ---- body payload encode -------------------------------------------------

std::string EncodeRawP(const std::vector<PRow>& rows) {
  std::string out;
  AppendVarint(&out, rows.size());
  for (const PRow& row : rows) {
    AppendVarint(&out, row.aug);
    AppendVarint(&out, row.node);
    AppendVarint(&out, row.start);
  }
  return out;
}

std::string EncodeDeltaP(const std::vector<uint64_t>& removed, const std::vector<PRow>& changed) {
  std::string out;
  AppendVarint(&out, removed.size());
  for (uint64_t aug : removed) {
    AppendVarint(&out, aug);
  }
  AppendVarint(&out, changed.size());
  for (const PRow& row : changed) {
    AppendVarint(&out, row.aug);
    AppendVarint(&out, row.node);
    AppendVarint(&out, row.start);
  }
  return out;
}

std::string EncodeRawPairs(const std::vector<Pair>& pairs) {
  std::string out;
  AppendVarint(&out, pairs.size());
  for (const Pair& p : pairs) {
    AppendVarint(&out, p.first);
    AppendVarint(&out, p.second);
  }
  return out;
}

std::string EncodeDeltaPairs(const std::vector<uint64_t>& removed,
                             const std::vector<Pair>& changed) {
  std::string out;
  AppendVarint(&out, removed.size());
  for (uint64_t key : removed) {
    AppendVarint(&out, key);
  }
  AppendVarint(&out, changed.size());
  for (const Pair& p : changed) {
    AppendVarint(&out, p.first);
    AppendVarint(&out, p.second);
  }
  return out;
}

// Replaces the raw pair section `*sec` with the delta of `child` against
// `parent` when both sides are canonically sorted and the delta is
// actually smaller — a pure size race, so degenerate edits never regress
// past the raw encoding — and then sets `flag` in `flags`.
void RaceDeltaPairs(const std::vector<Pair>& parent, const std::vector<Pair>& child,
                    uint64_t flag, std::string* sec, uint64_t* flags) {
  if (!StrictlyAscendingByKey(parent) || !StrictlyAscendingByKey(child)) {
    return;
  }
  std::vector<uint64_t> removed;
  std::vector<Pair> changed;
  DiffPairs(parent, child, &removed, &changed);
  std::string delta = EncodeDeltaPairs(removed, changed);
  if (delta.size() < sec->size()) {
    *sec = std::move(delta);
    *flags |= flag;
  }
}

// The payload sections every image of a family shares (see RecordSet):
// P, S and B, and whether P and B delta-code against the parent. Only the
// U reference and the T section depend on the image.
struct SharedSections {
  uint64_t flags = 0;  // kFlagDeltaP | kFlagDeltaB
  std::string p;
  std::string s;
  std::string b;
};

SharedSections EncodeSharedSections(const BodyRecords& rec, const BodyRecords* parent) {
  SharedSections out;
  out.p = EncodeRawP(rec.p);
  AppendVarint(&out.s, rec.s.size());
  for (uint64_t sink : rec.s) {
    AppendVarint(&out.s, sink);
  }
  out.b = EncodeRawPairs(rec.b);
  if (parent == nullptr) {
    return out;
  }
  if (StrictlyAscendingByAug(parent->p) && StrictlyAscendingByAug(rec.p)) {
    std::vector<uint64_t> removed;
    std::vector<PRow> changed;
    DiffP(parent->p, rec.p, &removed, &changed);
    std::string delta = EncodeDeltaP(removed, changed);
    if (delta.size() < out.p.size()) {
      out.p = std::move(delta);
      out.flags |= kFlagDeltaP;
    }
  }
  RaceDeltaPairs(parent->b, rec.b, kFlagDeltaB, &out.b, &out.flags);
  return out;
}

// ---- body payload decode -------------------------------------------------

using ParentLookup = std::function<const BodyRecords*(uint64_t)>;

Status DecodePairSection(ByteReader* r, bool is_delta, const std::vector<Pair>* parent,
                         uint64_t key_limit, const std::vector<std::vector<TableRow>>* ref_tables,
                         std::vector<Pair>* out) {
  const auto valid_value = [&](uint64_t v) {
    return ref_tables == nullptr || v < ref_tables->size();
  };
  uint64_t n = 0;
  if (is_delta) {
    std::vector<uint64_t> removed;
    std::vector<Pair> changed;
    if (!r->ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t key = 0;
      if (!r->ReadVarint(&key)) {
        return BadImage("truncated body payload");
      }
      if (key >= key_limit || (!removed.empty() && key <= removed.back())) {
        return BadImage("bad delta removal");
      }
      removed.push_back(key);
    }
    if (!r->ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t key = 0;
      uint64_t value = 0;
      if (!r->ReadVarint(&key) || !r->ReadVarint(&value)) {
        return BadImage("truncated body payload");
      }
      if (key >= key_limit || !valid_value(value) ||
          (!changed.empty() && key <= changed.back().first)) {
        return BadImage("bad delta entry");
      }
      changed.emplace_back(key, value);
    }
    if (!StrictlyAscendingByKey(*parent)) {
      return BadImage("delta parent not canonical");
    }
    return MergePairs(*parent, removed, changed, out);
  }
  if (!r->ReadVarint(&n)) {
    return BadImage("truncated body payload");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    uint64_t value = 0;
    if (!r->ReadVarint(&key) || !r->ReadVarint(&value)) {
      return BadImage("truncated body payload");
    }
    if (key >= key_limit || !valid_value(value)) {
      return BadImage("record out of range");
    }
    out->emplace_back(key, value);
  }
  return Status::Ok();
}

Status DecodeBodyPayload(std::string_view span, uint64_t id, const BodyDims& dims,
                         const Dicts& dicts, const ParentLookup& parent_of, BodyRecords* out) {
  ByteReader r(span);
  uint64_t flags = 0;
  if (!r.ReadVarint(&flags)) {
    return BadImage("truncated body payload");
  }
  if ((flags & ~kFlagMask) != 0) {
    return BadImage("unknown body flags");
  }
  const BodyRecords* parent = nullptr;
  if (flags != 0) {
    uint64_t pid = 0;
    if (!r.ReadVarint(&pid)) {
      return BadImage("truncated body payload");
    }
    if (pid >= id) {
      return BadImage("body parent not earlier");
    }
    parent = parent_of(pid);
    if (parent == nullptr) {
      return BadImage("body parent unavailable");
    }
  }
  if (!r.ReadVarint(&out->u_ref) || out->u_ref >= dicts.strings.size()) {
    return BadImage("utility ref out of range");
  }
  uint64_t n = 0;
  if ((flags & kFlagDeltaP) != 0) {
    std::vector<uint64_t> removed;
    std::vector<PRow> changed;
    if (!r.ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t aug = 0;
      if (!r.ReadVarint(&aug)) {
        return BadImage("truncated body payload");
      }
      if (aug >= dims.aug_count || (!removed.empty() && aug <= removed.back())) {
        return BadImage("bad delta removal");
      }
      removed.push_back(aug);
    }
    if (!r.ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      PRow row;
      if (!r.ReadVarint(&row.aug) || !r.ReadVarint(&row.node) || !r.ReadVarint(&row.start)) {
        return BadImage("truncated body payload");
      }
      if (row.aug >= dims.aug_count || row.node >= dims.node_count ||
          (!changed.empty() && row.aug <= changed.back().aug)) {
        return BadImage("bad delta entry");
      }
      changed.push_back(row);
    }
    if (!StrictlyAscendingByAug(parent->p)) {
      return BadImage("delta parent not canonical");
    }
    const Status merged = MergeP(parent->p, removed, changed, &out->p);
    if (!merged.ok()) {
      return merged;
    }
  } else {
    if (!r.ReadVarint(&n)) {
      return BadImage("truncated body payload");
    }
    for (uint64_t i = 0; i < n; ++i) {
      PRow row;
      if (!r.ReadVarint(&row.aug) || !r.ReadVarint(&row.node) || !r.ReadVarint(&row.start)) {
        return BadImage("truncated body payload");
      }
      if (row.aug >= dims.aug_count || row.node >= dims.node_count) {
        return BadImage("record out of range");
      }
      out->p.push_back(row);
    }
  }
  if (!r.ReadVarint(&n)) {
    return BadImage("truncated body payload");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sink = 0;
    if (!r.ReadVarint(&sink)) {
      return BadImage("truncated body payload");
    }
    out->s.push_back(sink);
  }
  Status section = DecodePairSection(&r, (flags & kFlagDeltaT) != 0,
                                     parent != nullptr ? &parent->t : nullptr, dims.node_count,
                                     &dicts.tables, &out->t);
  if (!section.ok()) {
    return section;
  }
  section = DecodePairSection(&r, (flags & kFlagDeltaB) != 0,
                              parent != nullptr ? &parent->b : nullptr, dims.edge_count,
                              nullptr, &out->b);
  if (!section.ok()) {
    return section;
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in body payload");
  }
  return Status::Ok();
}

// ---- wave-DAG prefix parents ---------------------------------------------

// For each body, the body referenced by the first referencing mode's fault
// set minus its last element — the level-(k-1) wave parent. Canonical mode
// order lists the parent's mode first, so the parent's file id precedes the
// child's; when it does not (or the prefix mode is absent), the body simply
// encodes raw. `Mode` is Parts::Mode or StrategyPatch::ModeRef.
template <typename Mode>
std::vector<std::optional<uint64_t>> PrefixParents(const std::vector<Mode>& modes,
                                                   size_t body_count) {
  std::map<std::vector<uint32_t>, uint64_t> ref_of;
  for (const Mode& mode : modes) {
    ref_of.try_emplace(mode.fault_nodes, mode.ref);
  }
  std::vector<std::optional<uint64_t>> parent(body_count);
  std::vector<bool> seen(body_count, false);
  for (const Mode& mode : modes) {
    const std::vector<uint32_t>& faults = mode.fault_nodes;
    const uint64_t ref = mode.ref;
    if (ref >= body_count || seen[ref]) {
      continue;
    }
    seen[ref] = true;
    if (faults.empty()) {
      continue;
    }
    const std::vector<uint32_t> prefix(faults.begin(), faults.end() - 1);
    const auto it = ref_of.find(prefix);
    if (it != ref_of.end() && it->second < ref) {
      parent[ref] = it->second;
    }
  }
  return parent;
}

// ---- section encode / decode ---------------------------------------------

// Dictionary sections list the family-wide entries `order` names, in that
// order: an image's own first-seen numbering (see EncodeImage).
std::string EncodeStrDict(const Dicts& dicts, const std::vector<uint64_t>& order) {
  std::string out;
  AppendVarint(&out, order.size());
  for (uint64_t id : order) {
    const std::string& s = dicts.strings[id];
    AppendVarint(&out, s.size());
    out += s;
  }
  return out;
}

Status DecodeStrDict(std::string_view section, Dicts* dicts) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated string dictionary");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    std::string_view bytes;
    if (!r.ReadVarint(&len) || !r.ReadBytes(len, &bytes)) {
      return BadImage("truncated string dictionary");
    }
    // Dictionary strings are spliced verbatim into rendered record lines,
    // so they must be single well-formed fields — no separators, no
    // injected records.
    if (!PlausibleFloatField(bytes)) {
      return BadImage("bad dictionary string");
    }
    dicts->strings.emplace_back(bytes);
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in string dictionary");
  }
  return Status::Ok();
}

std::string EncodeTabDict(const Dicts& dicts, const std::vector<uint64_t>& order) {
  std::string out;
  AppendVarint(&out, order.size());
  for (uint64_t id : order) {
    const std::vector<TableRow>& rows = dicts.tables[id];
    AppendVarint(&out, rows.size());
    for (const TableRow& row : rows) {
      AppendVarint(&out, row[0]);
      AppendVarint(&out, row[1]);
      AppendVarint(&out, row[2]);
    }
  }
  return out;
}

Status DecodeTabDict(std::string_view section, uint64_t aug_count, Dicts* dicts) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated table dictionary");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t rows = 0;
    if (!r.ReadVarint(&rows) || rows == 0) {
      return BadImage("bad table group");
    }
    std::vector<TableRow> group;
    for (uint64_t j = 0; j < rows; ++j) {
      TableRow row;
      if (!r.ReadVarint(&row[0]) || !r.ReadVarint(&row[1]) || !r.ReadVarint(&row[2])) {
        return BadImage("truncated table dictionary");
      }
      if (row[0] >= aug_count) {
        return BadImage("table job out of range");
      }
      group.push_back(row);
    }
    dicts->tables.push_back(std::move(group));
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in table dictionary");
  }
  return Status::Ok();
}

std::string EncodeModesSection(const std::vector<Parts::Mode>& modes) {
  std::string out;
  AppendVarint(&out, modes.size());
  for (const Parts::Mode& mode : modes) {
    AppendVarint(&out, mode.fault_nodes.size());
    for (uint32_t node : mode.fault_nodes) {
      AppendVarint(&out, node);
    }
    AppendVarint(&out, mode.ref);
  }
  return out;
}

Status DecodeFaultList(ByteReader* r, uint64_t node_count, std::vector<uint32_t>* out) {
  uint64_t k = 0;
  if (!r->ReadVarint(&k)) {
    return BadImage("truncated mode section");
  }
  for (uint64_t i = 0; i < k; ++i) {
    uint64_t node = 0;
    if (!r->ReadVarint(&node)) {
      return BadImage("truncated mode section");
    }
    if (node >= node_count) {
      return BadImage("fault node out of range");
    }
    out->push_back(static_cast<uint32_t>(node));
  }
  if (!ValidFaultNodeList(*out, node_count)) {
    return BadImage("bad fault node list");
  }
  return Status::Ok();
}

Status DecodeModesSection(std::string_view section, uint64_t node_count, uint64_t body_count,
                          std::vector<Parts::Mode>* out) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated mode section");
  }
  if (count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    Parts::Mode mode;
    const Status faults = DecodeFaultList(&r, node_count, &mode.fault_nodes);
    if (!faults.ok()) {
      return faults;
    }
    if (!r.ReadVarint(&mode.ref)) {
      return BadImage("truncated mode section");
    }
    if (mode.ref >= body_count) {
      return BadImage("mode ref out of range");
    }
    out->push_back(std::move(mode));
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in mode section");
  }
  return Status::Ok();
}

std::string EncodePatchModesSection(const StrategyPatch& patch) {
  std::string out;
  AppendVarint(&out, patch.sets.size());
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    AppendVarint(&out, set.fault_nodes.size());
    for (uint32_t node : set.fault_nodes) {
      AppendVarint(&out, node);
    }
    AppendVarint(&out, set.ref);
  }
  AppendVarint(&out, patch.dels.size());
  for (const std::vector<uint32_t>& del : patch.dels) {
    AppendVarint(&out, del.size());
    for (uint32_t node : del) {
      AppendVarint(&out, node);
    }
  }
  return out;
}

Status DecodePatchModesSection(std::string_view section, uint64_t node_count,
                               uint64_t body_count, std::vector<StrategyPatch::ModeRef>* sets,
                               std::vector<std::vector<uint32_t>>* dels) {
  ByteReader r(section);
  uint64_t count = 0;
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated mode section");
  }
  if (count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StrategyPatch::ModeRef set;
    const Status faults = DecodeFaultList(&r, node_count, &set.fault_nodes);
    if (!faults.ok()) {
      return faults;
    }
    uint64_t ref = 0;
    if (!r.ReadVarint(&ref)) {
      return BadImage("truncated mode section");
    }
    if (ref >= body_count) {
      return BadImage("mode ref out of range");
    }
    set.ref = static_cast<uint32_t>(ref);
    sets->push_back(std::move(set));
  }
  if (!r.ReadVarint(&count)) {
    return BadImage("truncated mode section");
  }
  if (count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<uint32_t> del;
    const Status faults = DecodeFaultList(&r, node_count, &del);
    if (!faults.ok()) {
      return faults;
    }
    dels->push_back(std::move(del));
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in mode section");
  }
  return Status::Ok();
}

std::string EncodeTrailerSection(bool has_prov, uint64_t max_faults, uint64_t planner_fp,
                                 uint64_t text_fp) {
  std::string out;
  AppendVarint(&out, has_prov ? 1 : 0);
  if (has_prov) {
    AppendVarint(&out, max_faults);
    AppendFixed64(&out, planner_fp);
  }
  AppendFixed64(&out, text_fp);
  out.append(8, '\0');  // image seal, patched by SealImage
  return out;
}

// ---- decoded shell -------------------------------------------------------

// Everything in an image except the body payloads: header fields, both
// dictionaries, the body index (as spans into the BODIES section), modes,
// and the trailer. Span views point into the caller's image buffer.
struct Shell {
  uint8_t kind = 0;
  BodyDims dims;
  uint64_t node = 0;  // slices
  uint64_t sfp = 0;   // slices
  uint64_t base_fp = 0;
  uint64_t target_fp = 0;
  bool sliced = false;
  uint64_t slice_node = 0;
  uint64_t old_body_count = 0;
  std::vector<uint32_t> deleted_old;
  std::vector<std::pair<uint32_t, uint64_t>> slice_fps;
  uint64_t final_mode_count = 0;
  Dicts dicts;
  std::vector<std::string_view> body_spans;
  std::vector<Parts::Mode> modes;
  std::vector<StrategyPatch::ModeRef> sets;
  std::vector<std::vector<uint32_t>> dels;
  bool has_prov = false;
  uint64_t prov_max_faults = 0;
  uint64_t prov_planner_fp = 0;
  uint64_t text_fp = 0;
};

Status DecodeMetaSection(std::string_view section, uint8_t kind, Shell* shell) {
  ByteReader r(section);
  if (!r.ReadVarint(&shell->dims.aug_count) || !r.ReadVarint(&shell->dims.node_count) ||
      !r.ReadVarint(&shell->dims.edge_count)) {
    return BadImage("truncated meta section");
  }
  if (shell->dims.aug_count >= kDimLimit || shell->dims.node_count >= kDimLimit ||
      shell->dims.edge_count >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  if (kind == kKindSlice) {
    if (!r.ReadVarint(&shell->node) || !r.ReadFixed64(&shell->sfp)) {
      return BadImage("truncated meta section");
    }
    if (shell->node >= shell->dims.node_count) {
      return BadImage("slice node out of range");
    }
  } else if (kind == kKindPatch) {
    uint64_t sliced = 0;
    if (!r.ReadFixed64(&shell->base_fp) || !r.ReadFixed64(&shell->target_fp) ||
        !r.ReadVarint(&sliced) || !r.ReadVarint(&shell->slice_node) ||
        !r.ReadVarint(&shell->old_body_count)) {
      return BadImage("truncated meta section");
    }
    if (sliced > 1 || shell->old_body_count >= kDimLimit) {
      return BadImage("bad meta section");
    }
    shell->sliced = sliced == 1;
    if (shell->sliced ? shell->slice_node >= shell->dims.node_count : shell->slice_node != 0) {
      return BadImage("slice node out of range");
    }
    uint64_t count = 0;
    if (!r.ReadVarint(&count) || count >= kDimLimit) {
      return BadImage("bad meta section");
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id = 0;
      if (!r.ReadVarint(&id)) {
        return BadImage("truncated meta section");
      }
      if (id >= shell->old_body_count ||
          (!shell->deleted_old.empty() && id <= shell->deleted_old.back())) {
        return BadImage("bad deleted body id");
      }
      shell->deleted_old.push_back(static_cast<uint32_t>(id));
    }
    if (!r.ReadVarint(&count) || count >= kDimLimit) {
      return BadImage("bad meta section");
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t node = 0;
      uint64_t fp = 0;
      if (!r.ReadVarint(&node) || !r.ReadFixed64(&fp)) {
        return BadImage("truncated meta section");
      }
      if (node >= shell->dims.node_count ||
          (!shell->slice_fps.empty() && node <= shell->slice_fps.back().first)) {
        return BadImage("bad slice fingerprint entry");
      }
      shell->slice_fps.emplace_back(static_cast<uint32_t>(node), fp);
    }
    if (!r.ReadVarint(&shell->final_mode_count) || shell->final_mode_count >= kDimLimit) {
      return BadImage("bad meta section");
    }
  }
  if (!r.AtEnd()) {
    return BadImage("trailing bytes in meta section");
  }
  return Status::Ok();
}

Status DecodeBodyIndex(std::string_view index_section, std::string_view bodies_section,
                       std::vector<std::string_view>* spans) {
  if (index_section.size() % 8 != 0) {
    return BadImage("bad body index size");
  }
  ByteReader r(index_section);
  uint64_t cursor = 0;
  while (!r.AtEnd()) {
    uint32_t offset = 0;
    uint32_t size = 0;
    r.ReadFixed32(&offset);
    r.ReadFixed32(&size);
    if (offset != cursor || size > bodies_section.size() - cursor) {
      return BadImage("body index not contiguous");
    }
    spans->push_back(bodies_section.substr(offset, size));
    cursor = offset + size;
  }
  if (cursor != bodies_section.size()) {
    return BadImage("body index does not cover bodies");
  }
  return Status::Ok();
}

Status DecodeTrailerSection(std::string_view section, Shell* shell) {
  ByteReader r(section);
  uint64_t has_prov = 0;
  if (!r.ReadVarint(&has_prov) || has_prov > 1) {
    return BadImage("bad trailer");
  }
  shell->has_prov = has_prov == 1;
  if (shell->has_prov) {
    if (!r.ReadVarint(&shell->prov_max_faults) || !r.ReadFixed64(&shell->prov_planner_fp)) {
      return BadImage("bad trailer");
    }
    if (shell->prov_max_faults >= kDimLimit) {
      return BadImage("bad trailer");
    }
  }
  uint64_t seal = 0;
  if (!r.ReadFixed64(&shell->text_fp) || !r.ReadFixed64(&seal) || !r.AtEnd()) {
    return BadImage("bad trailer");
  }
  return Status::Ok();
}

StatusOr<Shell> DecodeShell(std::string_view image) {
  const StatusOr<ImageIndex> index = IndexImage(image);
  if (!index.ok()) {
    return index.status();
  }
  Shell shell;
  shell.kind = index->kind;
  Status step = DecodeMetaSection(index->section(kSecMeta), shell.kind, &shell);
  if (!step.ok()) {
    return step;
  }
  step = DecodeStrDict(index->section(kSecStrDict), &shell.dicts);
  if (!step.ok()) {
    return step;
  }
  step = DecodeTabDict(index->section(kSecTabDict), shell.dims.aug_count, &shell.dicts);
  if (!step.ok()) {
    return step;
  }
  step = DecodeBodyIndex(index->section(kSecBodyIdx), index->section(kSecBodies),
                         &shell.body_spans);
  if (!step.ok()) {
    return step;
  }
  if (shell.body_spans.size() >= kDimLimit) {
    return BadImage("dimension out of range");
  }
  if (shell.kind == kKindPatch) {
    step = DecodePatchModesSection(index->section(kSecModes), shell.dims.node_count,
                                   shell.body_spans.size(), &shell.sets, &shell.dels);
  } else {
    step = DecodeModesSection(index->section(kSecModes), shell.dims.node_count,
                              shell.body_spans.size(), &shell.modes);
  }
  if (!step.ok()) {
    return step;
  }
  step = DecodeTrailerSection(index->section(kSecTrailer), &shell);
  if (!step.ok()) {
    return step;
  }
  return shell;
}

Status DecodePatchBody(std::string_view span, uint64_t id, const Shell& shell,
                       const ParentLookup& parent_of, DecodedBody* out) {
  ByteReader r(span);
  uint64_t copy = 0;
  if (!r.ReadVarint(&copy) || copy > 1) {
    return BadImage("bad body payload");
  }
  if (copy == 1) {
    out->copy = true;
    if (!r.ReadVarint(&out->old_id) || out->old_id >= shell.old_body_count || !r.AtEnd()) {
      return BadImage("bad body copy reference");
    }
    return Status::Ok();
  }
  return DecodeBodyPayload(span.substr(r.pos()), id, shell.dims, shell.dicts, parent_of,
                           &out->records);
}

// Forward pass over every body payload in id order (parents always resolve
// into already-decoded bodies). This is both the full decoder and the
// validate-only walk.
StatusOr<std::vector<DecodedBody>> DecodeAllBodies(const Shell& shell) {
  std::vector<DecodedBody> bodies(shell.body_spans.size());
  for (uint64_t id = 0; id < shell.body_spans.size(); ++id) {
    const ParentLookup parent_of = [&bodies, id](uint64_t pid) -> const BodyRecords* {
      if (pid >= id || bodies[pid].copy) {
        return nullptr;
      }
      return &bodies[pid].records;
    };
    Status decoded;
    if (shell.kind == kKindPatch) {
      decoded = DecodePatchBody(shell.body_spans[id], id, shell, parent_of, &bodies[id]);
    } else {
      decoded = DecodeBodyPayload(shell.body_spans[id], id, shell.dims, shell.dicts, parent_of,
                                  &bodies[id].records);
    }
    if (!decoded.ok()) {
      return decoded;
    }
  }
  return bodies;
}

StatusOr<std::string> RenderShellText(const Shell& shell, const std::vector<DecodedBody>& bodies) {
  std::vector<std::string> chunks;
  chunks.reserve(bodies.size());
  for (const DecodedBody& body : bodies) {
    chunks.push_back(RenderChunk(body.records, shell.dicts));
  }
  std::string text;
  if (shell.kind == kKindSlice) {
    std::vector<const std::string*> chunk_ptrs;
    chunk_ptrs.reserve(chunks.size());
    for (const std::string& chunk : chunks) {
      chunk_ptrs.push_back(&chunk);
    }
    text = strategy_text::RenderSliceText(shell.node, shell.dims.aug_count,
                                          shell.dims.node_count, shell.dims.edge_count,
                                          shell.has_prov, shell.prov_max_faults,
                                          shell.prov_planner_fp, shell.sfp, chunk_ptrs,
                                          shell.modes);
  } else {
    Parts parts;
    parts.is_slice = false;
    parts.aug_count = shell.dims.aug_count;
    parts.node_count = shell.dims.node_count;
    parts.edge_count = shell.dims.edge_count;
    parts.has_prov = shell.has_prov;
    parts.prov_max_faults = shell.prov_max_faults;
    parts.prov_planner_fp = shell.prov_planner_fp;
    parts.bodies = std::move(chunks);
    parts.modes = shell.modes;
    text = strategy_text::RenderBlobText(parts);
  }
  if (HashString(text) != shell.text_fp) {
    return BadImage("decoded text fingerprint mismatch");
  }
  return text;
}

// ---- image encode --------------------------------------------------------

// One image to encode: its kind and header, the T rows its bodies keep,
// and the canonical text it must decode back to.
struct ImageSpec {
  uint8_t kind = kKindBlob;
  std::optional<uint64_t> node;  // keep only this node's T rows
  std::string meta;
  std::string modes;  // encoded MODES section
  bool has_prov = false;
  uint64_t prov_max_faults = 0;
  uint64_t prov_planner_fp = 0;
  const std::string* text = nullptr;
};

// The body records of one family of images, parsed once: a blob and its
// node slices, or a patch and its node patch slices. Every image of a
// family has the same bodies with the same U/P/S/B records and the same
// mode table, so the records, their delta parents and their shared payload
// sections are built once. Images differ only in the T rows each body
// keeps, in the numbering of their dictionaries, and in their headers.
struct RecordSet {
  DictBuilder dicts;  // family-wide ids, first-seen over the full bodies
  std::vector<BodyRecords> records;
  std::vector<std::optional<uint64_t>> copy_of;  // BCOPY bodies: the base id
  std::vector<std::optional<uint64_t>> parents;
  std::vector<SharedSections> shared;
  ImageSpec full;  // the family's full image (its text is the caller's)
};

// Blob or slice header; `slice_node` is set for slices, whose SFP is `sfp`.
std::string EncodeStrategyMeta(const BodyDims& dims, const std::optional<uint64_t>& slice_node,
                               uint64_t sfp) {
  std::string meta;
  AppendVarint(&meta, dims.aug_count);
  AppendVarint(&meta, dims.node_count);
  AppendVarint(&meta, dims.edge_count);
  if (slice_node.has_value()) {
    AppendVarint(&meta, *slice_node);
    AppendFixed64(&meta, sfp);
  }
  return meta;
}

// Patch header. With `slice_node` set, the header of the patch's slice for
// that node, as MakeStrategyPatchSlice would produce it.
std::string EncodePatchMeta(const StrategyPatch& patch,
                            const std::optional<uint32_t>& slice_node) {
  const bool sliced = patch.sliced || slice_node.has_value();
  std::string meta;
  AppendVarint(&meta, patch.aug_count);
  AppendVarint(&meta, patch.node_count);
  AppendVarint(&meta, patch.edge_count);
  AppendFixed64(&meta, patch.base_fp);
  AppendFixed64(&meta, patch.target_fp);
  AppendVarint(&meta, sliced ? 1 : 0);
  AppendVarint(&meta, sliced ? slice_node.value_or(patch.slice_node) : 0);
  AppendVarint(&meta, patch.old_body_count);
  AppendVarint(&meta, patch.deleted_old.size());
  for (uint32_t id : patch.deleted_old) {
    AppendVarint(&meta, id);
  }
  std::vector<std::pair<uint32_t, uint64_t>> fps;
  for (const auto& entry : patch.slice_fps) {
    if (!slice_node.has_value() || entry.first == *slice_node) {
      fps.push_back(entry);
    }
  }
  AppendVarint(&meta, fps.size());
  for (const auto& [node, fp] : fps) {
    AppendVarint(&meta, node);
    AppendFixed64(&meta, fp);
  }
  AppendVarint(&meta, patch.final_mode_count);
  return meta;
}

// `chunks[id]` is body id's canonical record chunk, unless `set->copy_of[id]`
// names the base body a BCOPY body re-references. A BCOPY body has no
// records and is never a delta parent: a patch image must stay
// self-contained.
Status ParseRecordSet(const BodyDims& dims, const std::vector<const std::string*>& chunks,
                      std::vector<std::optional<uint64_t>> parents, RecordSet* set) {
  set->records.resize(chunks.size());
  for (size_t id = 0; id < chunks.size(); ++id) {
    if (set->copy_of[id].has_value()) {
      continue;
    }
    const Status chunk = ParseChunk(*chunks[id], dims, &set->dicts, &set->records[id]);
    if (!chunk.ok()) {
      return chunk;
    }
  }
  set->parents = std::move(parents);
  set->shared.resize(chunks.size());
  for (size_t id = 0; id < chunks.size(); ++id) {
    std::optional<uint64_t>& parent = set->parents[id];
    if (set->copy_of[id].has_value() ||
        (parent.has_value() && set->copy_of[*parent].has_value())) {
      parent.reset();
    }
    if (!set->copy_of[id].has_value()) {
      set->shared[id] = EncodeSharedSections(
          set->records[id], parent.has_value() ? &set->records[*parent] : nullptr);
    }
  }
  return Status::Ok();
}

StatusOr<RecordSet> ParseStrategyRecords(const Parts& parts) {
  const BodyDims dims{parts.aug_count, parts.node_count, parts.edge_count};
  RecordSet set;
  set.copy_of.resize(parts.bodies.size());
  set.full.kind = parts.is_slice ? kKindSlice : kKindBlob;
  set.full.meta = EncodeStrategyMeta(
      dims, parts.is_slice ? std::optional<uint64_t>(parts.node) : std::nullopt,
      parts.slice_sfp);
  set.full.modes = EncodeModesSection(parts.modes);
  set.full.has_prov = parts.has_prov;
  set.full.prov_max_faults = parts.prov_max_faults;
  set.full.prov_planner_fp = parts.prov_planner_fp;
  std::vector<const std::string*> chunks;
  for (const std::string& chunk : parts.bodies) {
    chunks.push_back(&chunk);
  }
  const Status parsed =
      ParseRecordSet(dims, chunks, PrefixParents(parts.modes, chunks.size()), &set);
  if (!parsed.ok()) {
    return parsed;
  }
  return set;
}

StatusOr<RecordSet> ParsePatchRecords(const StrategyPatch& patch) {
  RecordSet set;
  set.full.kind = kKindPatch;
  set.full.meta = EncodePatchMeta(patch, std::nullopt);
  set.full.modes = EncodePatchModesSection(patch);
  set.full.has_prov = patch.has_prov;
  set.full.prov_max_faults = patch.prov_max_faults;
  set.full.prov_planner_fp = patch.prov_planner_fp;
  std::vector<const std::string*> chunks;
  for (const StrategyPatch::BodyDef& def : patch.bodies) {
    chunks.push_back(&def.text);
    set.copy_of.push_back(def.copy ? std::optional<uint64_t>(def.old_id) : std::nullopt);
  }
  const Status parsed = ParseRecordSet({patch.aug_count, patch.node_count, patch.edge_count},
                                       chunks, PrefixParents(patch.sets, chunks.size()), &set);
  if (!parsed.ok()) {
    return parsed;
  }
  return set;
}

// Body `rec`'s T runs as one image keeps them: all of them, or only
// `node`'s. A slice's text holds a node's rows contiguously, so when the
// full body has several runs for the node, a parse of the slice sees one
// run of their rows concatenated; that run gets its own table entry.
void KeepTRuns(const BodyRecords& rec, const std::optional<uint64_t>& node, DictBuilder* dicts,
               std::vector<Pair>* out) {
  if (!node.has_value()) {
    *out = rec.t;
    return;
  }
  out->clear();
  for (const Pair& run : rec.t) {
    if (run.first != *node) {
      continue;
    }
    if (out->empty()) {
      out->push_back(run);
      continue;
    }
    std::vector<TableRow> rows = dicts->dicts.tables[out->back().second];
    const std::vector<TableRow>& more = dicts->dicts.tables[run.second];
    rows.insert(rows.end(), more.begin(), more.end());
    out->back().second = dicts->TableRef(std::move(rows));
  }
}

// Encodes one image of `set`. Dictionary entries are renumbered in the
// order a parse of the image's own text meets them (per body: U, then each
// T run), so the bytes equal those of encoding that text alone. The image
// is decoded and compared with its canonical text before it is returned.
StatusOr<std::string> EncodeImage(RecordSet* set, const ImageSpec& spec) {
  static constexpr uint64_t kUnset = UINT64_MAX;
  std::vector<uint64_t> string_local;
  std::vector<uint64_t> table_local;
  std::vector<uint64_t> string_order;
  std::vector<uint64_t> table_order;
  const auto local_ref = [](uint64_t id, std::vector<uint64_t>* local,
                            std::vector<uint64_t>* order) {
    if (id >= local->size()) {
      local->resize(id + 1, kUnset);
    }
    if ((*local)[id] == kUnset) {
      (*local)[id] = order->size();
      order->push_back(id);
    }
    return (*local)[id];
  };

  const size_t body_count = set->records.size();
  std::vector<std::vector<Pair>> t(body_count);
  std::string bodies_section;
  std::string index_section;
  std::string payload;
  for (size_t id = 0; id < body_count; ++id) {
    payload.clear();
    if (set->copy_of[id].has_value()) {
      AppendVarint(&payload, 1);
      AppendVarint(&payload, *set->copy_of[id]);
    } else {
      if (spec.kind == kKindPatch) {
        AppendVarint(&payload, 0);
      }
      const BodyRecords& rec = set->records[id];
      const uint64_t u_ref = local_ref(rec.u_ref, &string_local, &string_order);
      KeepTRuns(rec, spec.node, &set->dicts, &t[id]);
      for (Pair& run : t[id]) {
        run.second = local_ref(run.second, &table_local, &table_order);
      }
      const std::optional<uint64_t>& parent = set->parents[id];
      const SharedSections& shared = set->shared[id];
      uint64_t flags = shared.flags;
      std::string t_sec = EncodeRawPairs(t[id]);
      if (parent.has_value()) {
        RaceDeltaPairs(t[*parent], t[id], kFlagDeltaT, &t_sec, &flags);
      }
      AppendVarint(&payload, flags);
      if (flags != 0) {
        AppendVarint(&payload, *parent);
      }
      AppendVarint(&payload, u_ref);
      payload += shared.p;
      payload += shared.s;
      payload += t_sec;
      payload += shared.b;
    }
    if (bodies_section.size() + payload.size() > UINT32_MAX) {
      return BadEncode("image too large");
    }
    AppendFixed32(&index_section, static_cast<uint32_t>(bodies_section.size()));
    AppendFixed32(&index_section, static_cast<uint32_t>(payload.size()));
    bodies_section += payload;
  }

  std::string payloads[kSectionCount];
  payloads[kSecMeta - 1] = spec.meta;
  payloads[kSecStrDict - 1] = EncodeStrDict(set->dicts.dicts, string_order);
  payloads[kSecTabDict - 1] = EncodeTabDict(set->dicts.dicts, table_order);
  payloads[kSecBodyIdx - 1] = std::move(index_section);
  payloads[kSecBodies - 1] = std::move(bodies_section);
  payloads[kSecModes - 1] = spec.modes;
  payloads[kSecTrailer - 1] = EncodeTrailerSection(spec.has_prov, spec.prov_max_faults,
                                                   spec.prov_planner_fp, HashString(*spec.text));
  std::string image = SealImage(spec.kind, payloads);

  // Same discipline as the text patch path's canonical re-serialize seal:
  // never emit an image that does not provably round-trip.
  if (spec.kind == kKindPatch) {
    const StatusOr<StrategyPatch> round_trip = DecodePatchImage(image);
    if (!round_trip.ok() || SaveStrategyPatch(*round_trip) != *spec.text) {
      return Status::Internal("v4 patch encode self-check failed");
    }
  } else {
    const StatusOr<std::string> round_trip = DecodeStrategyImage(image);
    if (!round_trip.ok() || *round_trip != *spec.text) {
      return Status::Internal("v4 encode self-check failed");
    }
  }
  return image;
}

// Encodes the family's full image into `full`, then appends to `per_node`
// each node's image: the full spec re-kinded `node_kind`, keeping only the
// node's T rows, with header `node_meta(node)` and text `node_texts[node]`.
Status EncodeFamily(RecordSet* set, uint8_t node_kind,
                    const std::function<std::string(uint32_t)>& node_meta,
                    const std::vector<std::string>& node_texts, std::string* full,
                    std::vector<std::string>* per_node) {
  StatusOr<std::string> image = EncodeImage(set, set->full);
  if (!image.ok()) {
    return image.status();
  }
  *full = std::move(*image);
  ImageSpec spec = set->full;
  spec.kind = node_kind;
  for (uint32_t node = 0; node < node_texts.size(); ++node) {
    spec.node = node;
    spec.meta = node_meta(node);
    spec.text = &node_texts[node];
    image = EncodeImage(set, spec);
    if (!image.ok()) {
      return image.status();
    }
    per_node->push_back(std::move(*image));
  }
  return Status::Ok();
}

}  // namespace

// ---- public API ----------------------------------------------------------

StatusOr<std::string> EncodeStrategyImage(const std::string& text) {
  const StatusOr<Parts> parts = strategy_text::ParseParts(text);
  if (!parts.ok()) {
    return parts.status();
  }
  StatusOr<RecordSet> set = ParseStrategyRecords(*parts);
  if (!set.ok()) {
    return set.status();
  }
  set->full.text = &text;
  return EncodeImage(&*set, set->full);
}

StatusOr<std::string> DecodeStrategyImage(const std::string& image) {
  const StatusOr<Shell> shell = DecodeShell(image);
  if (!shell.ok()) {
    return shell.status();
  }
  if (shell->kind == kKindPatch) {
    return BadImage("patch image; use DecodePatchImage");
  }
  const StatusOr<std::vector<DecodedBody>> bodies = DecodeAllBodies(*shell);
  if (!bodies.ok()) {
    return bodies.status();
  }
  return RenderShellText(*shell, *bodies);
}

StatusOr<std::string> EncodePatchImage(const StrategyPatch& patch) {
  StatusOr<RecordSet> set = ParsePatchRecords(patch);
  if (!set.ok()) {
    return set.status();
  }
  const std::string text = SaveStrategyPatch(patch);
  set->full.text = &text;
  return EncodeImage(&*set, set->full);
}

StatusOr<RolloutArtifacts> EncodeRolloutImages(const StrategyPatch& patch,
                                               const RolloutArtifacts& texts) {
  const StatusOr<Parts> target = strategy_text::ParseParts(texts.blob);
  if (!target.ok()) {
    return target.status();
  }
  const uint64_t node_count = target->node_count;
  if (target->is_slice || patch.sliced || patch.node_count != node_count ||
      texts.slices.size() != node_count || texts.patch_slices.size() != node_count) {
    return BadEncode("rollout artifacts do not describe one unsliced rollout");
  }
  StatusOr<RecordSet> blob_set = ParseStrategyRecords(*target);
  if (!blob_set.ok()) {
    return blob_set.status();
  }
  StatusOr<RecordSet> patch_set = ParsePatchRecords(patch);
  if (!patch_set.ok()) {
    return patch_set.status();
  }
  const BodyDims dims{target->aug_count, target->node_count, target->edge_count};
  const uint64_t sfp = HashString(texts.blob);
  RolloutArtifacts images;
  blob_set->full.text = &texts.blob;
  Status encoded = EncodeFamily(
      &*blob_set, kKindSlice,
      [&dims, sfp](uint32_t node) { return EncodeStrategyMeta(dims, node, sfp); },
      texts.slices, &images.blob, &images.slices);
  if (!encoded.ok()) {
    return encoded;
  }
  patch_set->full.text = &texts.patch;
  encoded = EncodeFamily(
      &*patch_set, kKindPatch, [&patch](uint32_t node) { return EncodePatchMeta(patch, node); },
      texts.patch_slices, &images.patch, &images.patch_slices);
  if (!encoded.ok()) {
    return encoded;
  }
  return images;
}

StatusOr<StrategyPatch> DecodePatchImage(const std::string& image) {
  const StatusOr<Shell> shell = DecodeShell(image);
  if (!shell.ok()) {
    return shell.status();
  }
  if (shell->kind != kKindPatch) {
    return BadImage("not a patch image");
  }
  const StatusOr<std::vector<DecodedBody>> bodies = DecodeAllBodies(*shell);
  if (!bodies.ok()) {
    return bodies.status();
  }
  StrategyPatch patch;
  patch.sliced = shell->sliced;
  patch.slice_node = static_cast<uint32_t>(shell->slice_node);
  patch.aug_count = shell->dims.aug_count;
  patch.node_count = shell->dims.node_count;
  patch.edge_count = shell->dims.edge_count;
  patch.base_fp = shell->base_fp;
  patch.target_fp = shell->target_fp;
  patch.has_prov = shell->has_prov;
  patch.prov_max_faults = static_cast<uint32_t>(shell->prov_max_faults);
  patch.prov_planner_fp = shell->prov_planner_fp;
  patch.slice_fps = shell->slice_fps;
  patch.old_body_count = shell->old_body_count;
  patch.deleted_old = shell->deleted_old;
  patch.sets = shell->sets;
  patch.dels = shell->dels;
  patch.final_mode_count = shell->final_mode_count;
  for (const DecodedBody& body : *bodies) {
    StrategyPatch::BodyDef def;
    if (body.copy) {
      def.copy = true;
      def.old_id = static_cast<uint32_t>(body.old_id);
    } else {
      def.text = RenderChunk(body.records, shell->dicts);
    }
    patch.bodies.push_back(std::move(def));
  }
  const std::string text = SaveStrategyPatch(patch);
  if (HashString(text) != shell->text_fp) {
    return BadImage("decoded text fingerprint mismatch");
  }
  // Funnel through the strict text parser so a decoded patch carries
  // exactly the validation guarantees of a text-parsed one.
  return ParseStrategyPatch(text);
}

Status ValidateStrategyImage(const std::string& image) {
  const StatusOr<Shell> shell = DecodeShell(image);
  if (!shell.ok()) {
    return shell.status();
  }
  const StatusOr<std::vector<DecodedBody>> bodies = DecodeAllBodies(*shell);
  if (!bodies.ok()) {
    return bodies.status();
  }
  return Status::Ok();
}

// ---- BinaryStrategyView --------------------------------------------------

struct BinaryStrategyView::State {
  std::string image;
  Shell shell;  // spans point into `image`
};

StatusOr<BinaryStrategyView> BinaryStrategyView::Map(std::string image) {
  auto state = std::make_shared<State>();
  state->image = std::move(image);
  StatusOr<Shell> shell = DecodeShell(state->image);
  if (!shell.ok()) {
    return shell.status();
  }
  if (shell->kind == kKindPatch) {
    return BadImage("patch image; use DecodePatchImage");
  }
  state->shell = std::move(*shell);
  return BinaryStrategyView(std::move(state));
}

bool BinaryStrategyView::is_slice() const { return state_->shell.kind == kKindSlice; }
uint64_t BinaryStrategyView::node() const { return state_->shell.node; }
uint64_t BinaryStrategyView::slice_sfp() const { return state_->shell.sfp; }
uint64_t BinaryStrategyView::body_count() const { return state_->shell.body_spans.size(); }
uint64_t BinaryStrategyView::mode_count() const { return state_->shell.modes.size(); }
uint64_t BinaryStrategyView::text_fingerprint() const { return state_->shell.text_fp; }

}  // namespace fmt
}  // namespace btr
