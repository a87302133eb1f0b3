#include "src/core/strategy_patch.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/core/strategy_io.h"
#include "src/fmt/strategy_binary.h"
#include "src/core/strategy_parts_internal.h"
#include "src/core/strategy_text_internal.h"

namespace btr {

using strategy_text::BodyDims;
using strategy_text::FilterBodyForNode;
using strategy_text::Hex16;
using strategy_text::HexCanonical;
using strategy_text::LineScanner;
using strategy_text::ParseHex16;
using strategy_text::ParseHexCanonical;
using strategy_text::ParseU64;
using strategy_text::RenderModeLine;
using strategy_text::SplitFields;
using strategy_text::ValidBodyRecord;
using strategy_text::ValidFaultNodeList;

uint64_t FingerprintStrategyText(const std::string& text) { return HashString(text); }

using strategy_text::Parts;
using strategy_text::ParseParts;
using strategy_text::RenderSliceOfBlob;
using strategy_text::RenderSliceText;
using strategy_text::SplitChunk;

namespace strategy_text {
namespace {

constexpr char kBlobMagic[] = "BTRSTRATEGY v3";
constexpr char kSliceMagic[] = "BTRSLICE v1";

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated strategy text (") + what + ")");
}

// Reads the next '\n'-terminated line or fails as a truncation.
Status NextLine(LineScanner* scan, std::string_view* line, const char* what) {
  if (!strategy_text::NextTerminatedLine(scan, line)) {
    return Truncated(what);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Parts> ParseParts(const std::string& text) {
  Parts parts;
  LineScanner scan(text);
  std::string_view line;
  std::vector<std::string_view> f;

  Status st = NextLine(&scan, &line, "magic");
  if (!st.ok()) {
    return st;
  }
  if (line == kSliceMagic) {
    parts.is_slice = true;
  } else if (line != kBlobMagic) {
    return Status::InvalidArgument("not a canonical BTRSTRATEGY v3 / BTRSLICE v1 text");
  }

  if (parts.is_slice) {
    st = NextLine(&scan, &line, "NODE");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "NODE" ||
        !ParseU64(f[1], &parts.node)) {
      return Status::InvalidArgument("malformed NODE record");
    }
  }

  st = NextLine(&scan, &line, "DIM");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.size() != 4 || f[0] != "DIM" ||
      !ParseU64(f[1], &parts.aug_count) || !ParseU64(f[2], &parts.node_count) ||
      !ParseU64(f[3], &parts.edge_count) || parts.node_count == 0) {
    return Status::InvalidArgument("malformed DIM record");
  }
  if (parts.is_slice && parts.node >= parts.node_count) {
    return Status::InvalidArgument("slice NODE outside the node universe");
  }

  st = NextLine(&scan, &line, "PLANS");
  if (!st.ok()) {
    return st;
  }
  if (!SplitFields(line, &f) || f.empty()) {
    return Status::InvalidArgument("malformed header record");
  }
  if (f[0] == "PROV") {
    if (f.size() != 3 || !ParseU64(f[1], &parts.prov_max_faults) ||
        !ParseHexCanonical(f[2], &parts.prov_planner_fp)) {
      return Status::InvalidArgument("malformed PROV record");
    }
    parts.has_prov = true;
    st = NextLine(&scan, &line, "PLANS");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return Status::InvalidArgument("malformed header record");
    }
  }
  if (parts.is_slice) {
    if (f[0] != "SFP" || f.size() != 2 || !ParseHex16(f[1], &parts.slice_sfp)) {
      return Status::InvalidArgument("malformed SFP record");
    }
    st = NextLine(&scan, &line, "PLANS");
    if (!st.ok()) {
      return st;
    }
    if (!SplitFields(line, &f) || f.empty()) {
      return Status::InvalidArgument("malformed header record");
    }
  }

  uint64_t plan_count = 0;
  if (f[0] != "PLANS" || f.size() != 2 || !ParseU64(f[1], &plan_count)) {
    return Status::InvalidArgument("missing PLANS header");
  }
  if (plan_count == 0 || plan_count > text.size()) {
    return Status::InvalidArgument("implausible PLANS count");
  }

  const BodyDims dims{parts.aug_count, parts.node_count, parts.edge_count};
  parts.bodies.reserve(plan_count);
  for (uint64_t id = 0; id < plan_count; ++id) {
    st = NextLine(&scan, &line, "PLAN header");
    if (!st.ok()) {
      return st;
    }
    uint64_t declared = 0;
    if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "PLAN" ||
        !ParseU64(f[1], &declared) || declared != id) {
      return Status::InvalidArgument("malformed PLAN header");
    }
    std::string chunk;
    bool ended = false;
    while (!ended) {
      st = NextLine(&scan, &line, "plan body");
      if (!st.ok()) {
        return st;
      }
      uint64_t t_node = 0;
      if (!ValidBodyRecord(line, dims, &t_node, &ended)) {
        return Status::InvalidArgument("malformed plan body record");
      }
      if (parts.is_slice && t_node != UINT64_MAX && t_node != parts.node) {
        return Status::InvalidArgument("slice carries another node's table row");
      }
      chunk.append(line);
      chunk.push_back('\n');
    }
    parts.bodies.push_back(std::move(chunk));
  }

  st = NextLine(&scan, &line, "MODES header");
  if (!st.ok()) {
    return st;
  }
  uint64_t mode_count = 0;
  if (!SplitFields(line, &f) || f.size() != 2 || f[0] != "MODES" ||
      !ParseU64(f[1], &mode_count)) {
    return Status::InvalidArgument("missing MODES header");
  }
  if (mode_count == 0 || mode_count > text.size()) {
    return Status::InvalidArgument("implausible MODES count");
  }
  parts.modes.reserve(mode_count);
  for (uint64_t m = 0; m < mode_count; ++m) {
    st = NextLine(&scan, &line, "MODE");
    if (!st.ok()) {
      return st;
    }
    uint64_t k = 0;
    if (!SplitFields(line, &f) || f.size() < 4 || f[0] != "MODE" || !ParseU64(f[1], &k) ||
        f.size() != k + 4 || f[k + 2] != "REF") {
      return Status::InvalidArgument("malformed MODE record");
    }
    Parts::Mode mode;
    mode.fault_nodes.reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
      uint64_t v = 0;
      if (!ParseU64(f[2 + i], &v)) {
        return Status::InvalidArgument("malformed MODE nodes");
      }
      mode.fault_nodes.push_back(static_cast<uint32_t>(v));
    }
    if (!ValidFaultNodeList(mode.fault_nodes, parts.node_count)) {
      return Status::InvalidArgument("malformed MODE nodes");
    }
    if (!ParseU64(f[k + 3], &mode.ref) || mode.ref >= parts.bodies.size()) {
      return Status::InvalidArgument("malformed MODE body reference");
    }
    if (!parts.modes.empty() && !(parts.modes.back().fault_nodes < mode.fault_nodes)) {
      return Status::InvalidArgument("MODE records out of canonical order");
    }
    parts.modes.push_back(std::move(mode));
  }
  if (!scan.AtEnd()) {
    return Status::InvalidArgument("trailing data after MODES");
  }
  if (parts.modes.empty() || !parts.modes.front().fault_nodes.empty()) {
    return Status::InvalidArgument("strategy has no fault-free mode");
  }
  return parts;
}

// Renders a slice from components; exactly what ExtractSlice produces and
// what ApplyPatchToSlice must reproduce.
std::string RenderSliceText(uint64_t node, uint64_t aug_count, uint64_t node_count,
                            uint64_t edge_count, bool has_prov, uint64_t prov_max_faults,
                            uint64_t prov_planner_fp, uint64_t sfp,
                            const std::vector<const std::string*>& body_chunks,
                            const std::vector<Parts::Mode>& modes) {
  std::string out = std::string(kSliceMagic) + "\n";
  out += "NODE " + std::to_string(node) + "\n";
  out += "DIM " + std::to_string(aug_count) + " " + std::to_string(node_count) + " " +
         std::to_string(edge_count) + "\n";
  if (has_prov) {
    out += "PROV " + std::to_string(prov_max_faults) + " " + HexCanonical(prov_planner_fp) +
           "\n";
  }
  out += "SFP " + Hex16(sfp) + "\n";
  out += "PLANS " + std::to_string(body_chunks.size()) + "\n";
  for (size_t id = 0; id < body_chunks.size(); ++id) {
    out += "PLAN " + std::to_string(id) + "\n";
    out += *body_chunks[id];
  }
  out += "MODES " + std::to_string(modes.size()) + "\n";
  for (const Parts::Mode& mode : modes) {
    out += RenderModeLine(mode.fault_nodes, mode.ref);
  }
  return out;
}

std::string RenderSliceOfBlob(const Parts& blob, uint64_t node, uint64_t sfp) {
  std::vector<std::string> filtered;
  filtered.reserve(blob.bodies.size());
  for (const std::string& chunk : blob.bodies) {
    filtered.push_back(FilterBodyForNode(chunk, node));
  }
  std::vector<const std::string*> chunks;
  chunks.reserve(filtered.size());
  for (const std::string& chunk : filtered) {
    chunks.push_back(&chunk);
  }
  return RenderSliceText(node, blob.aug_count, blob.node_count, blob.edge_count,
                         blob.has_prov, blob.prov_max_faults, blob.prov_planner_fp, sfp,
                         chunks, blob.modes);
}

// Splits a validated body chunk into (shared prefix, own T rows, shared
// suffix); the writer's record order U, P*, S*, T*, B*, END makes the
// split well-defined even when the chunk has no T rows.
void SplitChunk(const std::string& chunk, std::string* pre, std::string* t_rows,
                std::string* post) {
  pre->clear();
  t_rows->clear();
  post->clear();
  size_t pos = 0;
  int section = 0;  // 0 = pre, 1 = T rows, 2 = post
  while (pos < chunk.size()) {
    size_t nl = chunk.find('\n', pos);
    if (nl == std::string::npos) {
      nl = chunk.size() - 1;
    }
    const std::string_view line(chunk.data() + pos, nl - pos);
    const bool is_t = line.size() > 2 && line[0] == 'T' && line[1] == ' ';
    if (section == 0 && is_t) {
      section = 1;
    } else if (section <= 1 && !is_t &&
               (line == "END" || (line.size() > 2 && line[0] == 'B' && line[1] == ' '))) {
      section = 2;
    }
    std::string* dest = section == 0 ? pre : (section == 1 && is_t ? t_rows : post);
    dest->append(chunk, pos, nl - pos + 1);
    pos = nl + 1;
  }
}

std::string RenderBlobText(const Parts& blob) {
  std::string out = std::string(kBlobMagic) + "\n";
  out += "DIM " + std::to_string(blob.aug_count) + " " + std::to_string(blob.node_count) +
         " " + std::to_string(blob.edge_count) + "\n";
  if (blob.has_prov) {
    out += "PROV " + std::to_string(blob.prov_max_faults) + " " +
           HexCanonical(blob.prov_planner_fp) + "\n";
  }
  out += "PLANS " + std::to_string(blob.bodies.size()) + "\n";
  for (size_t id = 0; id < blob.bodies.size(); ++id) {
    out += "PLAN " + std::to_string(id) + "\n";
    out += blob.bodies[id];
  }
  out += "MODES " + std::to_string(blob.modes.size()) + "\n";
  for (const Parts::Mode& mode : blob.modes) {
    out += RenderModeLine(mode.fault_nodes, mode.ref);
  }
  return out;
}

}  // namespace strategy_text

StatusOr<std::string> ExtractSlice(const std::string& blob_text, uint32_t node) {
  StatusOr<Parts> parts = ParseParts(blob_text);
  if (!parts.ok()) {
    return parts.status();
  }
  if (parts->is_slice) {
    return Status::InvalidArgument("cannot slice a slice; pass the full blob");
  }
  if (node >= parts->node_count) {
    return Status::InvalidArgument("node outside the blob's node universe");
  }
  return RenderSliceOfBlob(*parts, node, FingerprintStrategyText(blob_text));
}

StatusOr<uint64_t> ValidateSliceText(const std::string& slice_text, uint32_t node) {
  StatusOr<Parts> parts = ParseParts(slice_text);
  if (!parts.ok()) {
    return parts.status();
  }
  if (!parts->is_slice) {
    return Status::InvalidArgument("expected a BTRSLICE text");
  }
  if (parts->node != node) {
    return Status::InvalidArgument("slice belongs to node " + std::to_string(parts->node));
  }
  return parts->slice_sfp;
}

namespace {

// Splits a body chunk once into (prefix, per-node T rows, suffix) for bulk
// slicing. Returns false when the chunk is not in canonical record order
// (all T rows contiguous) — callers then fall back to FilterBodyForNode per
// node, which handles any record order. For a canonical chunk,
//   pre + buckets[node] + post == FilterBodyForNode(chunk, node)
// byte-for-byte (T lines with an unparsable node field are dropped from
// every slice, exactly as FilterBodyForNode drops them).
bool BucketChunkByNode(const std::string& chunk, std::string* pre, std::string* post,
                       std::unordered_map<uint64_t, std::string>* buckets) {
  pre->clear();
  post->clear();
  buckets->clear();
  size_t pos = 0;
  int section = 0;  // 0 = pre, 1 = T rows, 2 = post
  while (pos < chunk.size()) {
    size_t nl = chunk.find('\n', pos);
    if (nl == std::string::npos) {
      nl = chunk.size() - 1;  // defensive; validated chunks end with '\n'
    }
    const std::string_view line(chunk.data() + pos, nl - pos);
    const bool is_t = line.size() > 2 && line[0] == 'T' && line[1] == ' ';
    if (is_t) {
      if (section == 2) {
        return false;  // T row after the T section: non-canonical order
      }
      section = 1;
      uint64_t node = 0;
      const size_t sp = line.find(' ', 2);
      const std::string_view field =
          sp == std::string_view::npos ? line.substr(2) : line.substr(2, sp - 2);
      if (ParseU64(field, &node)) {
        (*buckets)[node].append(chunk, pos, nl - pos + 1);
      }
    } else {
      if (section == 1) {
        section = 2;
      }
      (section == 0 ? pre : post)->append(chunk, pos, nl - pos + 1);
    }
    pos = nl + 1;
  }
  return true;
}

// Renders every node's slice of a parsed blob in one pass: each body chunk
// is split and bucketed once, so total work is O(blob + total slice bytes)
// instead of the per-node re-filtering's O(blob x nodes).
std::vector<std::string> RenderAllSlicesOfBlob(const Parts& blob, uint64_t sfp) {
  const size_t body_count = blob.bodies.size();
  std::vector<std::string> pres(body_count);
  std::vector<std::string> posts(body_count);
  std::vector<std::unordered_map<uint64_t, std::string>> buckets(body_count);
  std::vector<char> bucketed(body_count, 0);
  for (size_t id = 0; id < body_count; ++id) {
    bucketed[id] =
        BucketChunkByNode(blob.bodies[id], &pres[id], &posts[id], &buckets[id]) ? 1 : 0;
  }
  std::vector<std::string> slices;
  slices.reserve(blob.node_count);
  std::vector<std::string> chunks(body_count);
  std::vector<const std::string*> chunk_ptrs(body_count);
  for (uint64_t node = 0; node < blob.node_count; ++node) {
    for (size_t id = 0; id < body_count; ++id) {
      if (bucketed[id] != 0) {
        const auto it = buckets[id].find(node);
        chunks[id] = pres[id];
        if (it != buckets[id].end()) {
          chunks[id] += it->second;
        }
        chunks[id] += posts[id];
      } else {
        chunks[id] = FilterBodyForNode(blob.bodies[id], node);
      }
      chunk_ptrs[id] = &chunks[id];
    }
    slices.push_back(RenderSliceText(node, blob.aug_count, blob.node_count, blob.edge_count,
                                     blob.has_prov, blob.prov_max_faults,
                                     blob.prov_planner_fp, sfp, chunk_ptrs, blob.modes));
  }
  return slices;
}

// Renders SaveStrategyPatch(MakeStrategyPatchSlice(patch, n)) for every
// node n without re-serializing the shared sections per slice: the header,
// BCOPY/BDEL/MODES tail, and each BNEW body's shared records render once,
// and only the NODE/NSLICE lines plus each node's own T rows vary.
StatusOr<std::vector<std::string>> RenderPatchSliceTexts(const StrategyPatch& patch) {
  if (patch.sliced) {
    return Status::InvalidArgument("patch is already sliced");
  }
  std::string header = "BTRPATCH v1\n";
  header += "DIM " + std::to_string(patch.aug_count) + " " + std::to_string(patch.node_count) +
            " " + std::to_string(patch.edge_count) + "\n";
  header += "BASE " + Hex16(patch.base_fp) + "\n";
  header += "TARGET " + Hex16(patch.target_fp) + "\n";
  if (patch.has_prov) {
    header += "PROV " + std::to_string(patch.prov_max_faults) + " " +
              HexCanonical(patch.prov_planner_fp) + "\n";
  }
  const std::string bodies_line = "BODIES " + std::to_string(patch.bodies.size()) + " " +
                                  std::to_string(patch.old_body_count) + "\n";

  // Per body: the BCOPY line / BNEW header plus the one-pass split of the
  // new body's records.
  const size_t body_count = patch.bodies.size();
  std::vector<std::string> heads(body_count);
  std::vector<std::string> posts(body_count);
  std::vector<std::unordered_map<uint64_t, std::string>> buckets(body_count);
  std::vector<char> bucketed(body_count, 0);
  for (size_t id = 0; id < body_count; ++id) {
    const StrategyPatch::BodyDef& def = patch.bodies[id];
    if (def.copy) {
      heads[id] =
          "BCOPY " + std::to_string(id) + " " + std::to_string(def.old_id) + "\n";
      bucketed[id] = 1;  // nothing node-dependent
      continue;
    }
    heads[id] = "BNEW " + std::to_string(id) + "\n";
    std::string pre;
    if (BucketChunkByNode(def.text, &pre, &posts[id], &buckets[id])) {
      heads[id] += pre;
      bucketed[id] = 1;
    }
  }

  std::string tail;
  for (uint32_t old_id : patch.deleted_old) {
    tail += "BDEL " + std::to_string(old_id) + "\n";
  }
  tail += "MODES " + std::to_string(patch.final_mode_count) + " " +
          std::to_string(patch.sets.size()) + " " + std::to_string(patch.dels.size()) + "\n";
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    tail += "MSET " + std::to_string(set.fault_nodes.size());
    for (uint32_t n : set.fault_nodes) {
      tail += ' ';
      tail += std::to_string(n);
    }
    tail += " REF " + std::to_string(set.ref) + "\n";
  }
  for (const std::vector<uint32_t>& del : patch.dels) {
    tail += "MDEL " + std::to_string(del.size());
    for (uint32_t n : del) {
      tail += ' ';
      tail += std::to_string(n);
    }
    tail += "\n";
  }
  tail += "PATCHEND\n";

  std::vector<std::string> out;
  out.reserve(patch.node_count);
  for (uint32_t node = 0; node < patch.node_count; ++node) {
    uint64_t slice_fp = 0;
    bool have_fp = false;
    for (const auto& [n, fp] : patch.slice_fps) {
      if (n == node) {
        slice_fp = fp;
        have_fp = true;
        break;
      }
    }
    if (!have_fp) {
      return Status::InvalidArgument("patch has no slice fingerprint for the node");
    }
    std::string text = header;
    text += "NODE " + std::to_string(node) + "\n";
    text += "NSLICE " + std::to_string(node) + " " + Hex16(slice_fp) + "\n";
    text += bodies_line;
    for (size_t id = 0; id < body_count; ++id) {
      if (patch.bodies[id].copy) {
        text += heads[id];
      } else if (bucketed[id] != 0) {
        text += heads[id];
        const auto it = buckets[id].find(node);
        if (it != buckets[id].end()) {
          text += it->second;
        }
        text += posts[id];
      } else {
        text += heads[id];
        text += FilterBodyForNode(patch.bodies[id].text, node);
      }
    }
    text += tail;
    out.push_back(std::move(text));
  }
  return out;
}

// Shared core of MakeStrategyPatch and BuildStrategyUpdate: diffs two
// already-parsed blobs. When `target_slices` is non-null it receives the
// rendered full target slice of every node (the same renders that produce
// slice_fps), so callers that need both never render twice.
StatusOr<StrategyPatch> MakePatchFromParts(const Parts& base, const Parts& target,
                                           uint64_t base_fp, uint64_t target_fp,
                                           std::vector<std::string>* target_slices) {
  if (base.is_slice || target.is_slice) {
    return Status::InvalidArgument("patches diff full blobs, not slices");
  }
  if (base.node_count != target.node_count) {
    return Status::InvalidArgument(
        "node universe changed; delta install requires a fixed node set");
  }

  StrategyPatch patch;
  patch.aug_count = target.aug_count;
  patch.node_count = target.node_count;
  patch.edge_count = target.edge_count;
  patch.base_fp = base_fp;
  patch.target_fp = target_fp;
  patch.has_prov = target.has_prov;
  patch.prov_max_faults = static_cast<uint32_t>(target.prov_max_faults);
  patch.prov_planner_fp = target.prov_planner_fp;
  patch.old_body_count = base.bodies.size();
  patch.final_mode_count = target.modes.size();

  // Bodies the edit left byte-identical become references into the base.
  std::unordered_map<std::string_view, uint32_t> base_by_text;
  base_by_text.reserve(base.bodies.size());
  for (uint32_t id = 0; id < base.bodies.size(); ++id) {
    base_by_text.emplace(base.bodies[id], id);
  }
  std::vector<char> claimed(base.bodies.size(), 0);
  std::vector<uint32_t> new_from_old(base.bodies.size(), UINT32_MAX);
  patch.bodies.reserve(target.bodies.size());
  for (uint32_t id = 0; id < target.bodies.size(); ++id) {
    StrategyPatch::BodyDef def;
    auto it = base_by_text.find(target.bodies[id]);
    if (it != base_by_text.end() && claimed[it->second] == 0) {
      def.copy = true;
      def.old_id = it->second;
      claimed[it->second] = 1;
      new_from_old[it->second] = id;
    } else {
      def.text = target.bodies[id];
    }
    patch.bodies.push_back(std::move(def));
  }
  for (uint32_t id = 0; id < base.bodies.size(); ++id) {
    if (claimed[id] == 0) {
      patch.deleted_old.push_back(id);
    }
  }

  // Modes: list only re-referenced / new / removed ones; every other mode
  // keeps its base body through the copy map.
  size_t b = 0;
  size_t t = 0;
  while (b < base.modes.size() || t < target.modes.size()) {
    const bool take_base =
        t >= target.modes.size() ||
        (b < base.modes.size() &&
         base.modes[b].fault_nodes < target.modes[t].fault_nodes);
    const bool take_target =
        b >= base.modes.size() ||
        (t < target.modes.size() &&
         target.modes[t].fault_nodes < base.modes[b].fault_nodes);
    if (take_base) {
      patch.dels.push_back(base.modes[b].fault_nodes);
      ++b;
    } else if (take_target) {
      patch.sets.push_back(
          {target.modes[t].fault_nodes, static_cast<uint32_t>(target.modes[t].ref)});
      ++t;
    } else {
      // Same fault set on both sides: silent only if the body reference
      // survives the renumbering unchanged.
      if (new_from_old[base.modes[b].ref] != target.modes[t].ref) {
        patch.sets.push_back(
            {target.modes[t].fault_nodes, static_cast<uint32_t>(target.modes[t].ref)});
      }
      ++b;
      ++t;
    }
  }

  std::vector<std::string> slices = RenderAllSlicesOfBlob(target, patch.target_fp);
  for (uint32_t n = 0; n < target.node_count; ++n) {
    patch.slice_fps.emplace_back(n, FingerprintStrategyText(slices[n]));
  }
  if (target_slices != nullptr) {
    *target_slices = std::move(slices);
  }
  return patch;
}

}  // namespace

StatusOr<StrategyPatch> MakeStrategyPatch(const std::string& base_blob,
                                          const std::string& target_blob) {
  StatusOr<Parts> base = ParseParts(base_blob);
  if (!base.ok()) {
    return base.status();
  }
  StatusOr<Parts> target = ParseParts(target_blob);
  if (!target.ok()) {
    return target.status();
  }
  return MakePatchFromParts(*base, *target, FingerprintStrategyText(base_blob),
                            FingerprintStrategyText(target_blob), nullptr);
}

StatusOr<StrategyPatch> MakeStrategyPatchSlice(const StrategyPatch& patch, uint32_t node) {
  if (patch.sliced) {
    return Status::InvalidArgument("patch is already sliced");
  }
  if (node >= patch.node_count) {
    return Status::InvalidArgument("node outside the patch's node universe");
  }
  StrategyPatch sliced;
  sliced.sliced = true;
  sliced.slice_node = node;
  sliced.aug_count = patch.aug_count;
  sliced.node_count = patch.node_count;
  sliced.edge_count = patch.edge_count;
  sliced.base_fp = patch.base_fp;
  sliced.target_fp = patch.target_fp;
  sliced.has_prov = patch.has_prov;
  sliced.prov_max_faults = patch.prov_max_faults;
  sliced.prov_planner_fp = patch.prov_planner_fp;
  sliced.old_body_count = patch.old_body_count;
  sliced.bodies.reserve(patch.bodies.size());
  for (const StrategyPatch::BodyDef& def : patch.bodies) {
    sliced.bodies.push_back(
        {def.copy, def.old_id, def.copy ? std::string() : FilterBodyForNode(def.text, node)});
  }
  sliced.deleted_old = patch.deleted_old;
  sliced.sets = patch.sets;
  sliced.dels = patch.dels;
  sliced.final_mode_count = patch.final_mode_count;
  for (const auto& [n, fp] : patch.slice_fps) {
    if (n == node) {
      sliced.slice_fps.emplace_back(n, fp);
    }
  }
  if (sliced.slice_fps.empty()) {
    return Status::InvalidArgument("patch has no slice fingerprint for the node");
  }
  return sliced;
}

StatusOr<std::string> ApplyPatchToSlice(const std::string& slice_text,
                                        const StrategyPatch& patch) {
  StatusOr<Parts> base_or = ParseParts(slice_text);
  if (!base_or.ok()) {
    return base_or.status();
  }
  const Parts& base = *base_or;
  if (!base.is_slice) {
    return Status::InvalidArgument("apply target must be a node slice");
  }
  if (!patch.sliced || patch.slice_node != base.node) {
    return Status::InvalidArgument("patch is not sliced for this node");
  }
  if (patch.node_count != base.node_count) {
    return Status::InvalidArgument("patch node universe does not match the slice");
  }
  if (patch.base_fp != base.slice_sfp) {
    return Status::FailedPrecondition(
        "patch base fingerprint does not match the installed strategy; refusing to apply");
  }
  if (patch.old_body_count != base.bodies.size()) {
    return Status::InvalidArgument("patch base body count does not match the slice");
  }
  uint64_t expect_fp = 0;
  bool have_fp = false;
  for (const auto& [n, fp] : patch.slice_fps) {
    if (n == base.node) {
      expect_fp = fp;
      have_fp = true;
    }
  }
  if (!have_fp) {
    return Status::InvalidArgument("patch carries no slice fingerprint for this node");
  }

  // Assemble the target body list; BCOPY references and BDEL drops must
  // partition the base id space exactly.
  std::vector<const std::string*> chunks(patch.bodies.size(), nullptr);
  std::vector<uint32_t> new_from_old(base.bodies.size(), UINT32_MAX);
  std::vector<char> accounted(base.bodies.size(), 0);
  for (uint32_t id = 0; id < patch.bodies.size(); ++id) {
    const StrategyPatch::BodyDef& def = patch.bodies[id];
    if (def.copy) {
      if (def.old_id >= base.bodies.size() || accounted[def.old_id] != 0) {
        return Status::InvalidArgument("patch re-references an invalid base body");
      }
      accounted[def.old_id] = 1;
      new_from_old[def.old_id] = id;
      chunks[id] = &base.bodies[def.old_id];
    } else {
      chunks[id] = &def.text;
    }
  }
  for (uint32_t old_id : patch.deleted_old) {
    if (old_id >= base.bodies.size() || accounted[old_id] != 0) {
      return Status::InvalidArgument("patch deletes an invalid base body");
    }
    accounted[old_id] = 1;
  }
  for (uint32_t old_id = 0; old_id < base.bodies.size(); ++old_id) {
    if (accounted[old_id] == 0) {
      return Status::InvalidArgument("patch leaves a base body unaccounted for");
    }
  }

  // Modes: start from the installed set, remove, remap survivors through
  // the copy map, then merge the re-referenced list.
  struct ModeEntry {
    std::vector<uint32_t> fault_nodes;
    uint64_t ref = 0;
    bool final_ref = false;
  };
  std::vector<ModeEntry> modes;
  modes.reserve(base.modes.size() + patch.sets.size());
  for (const Parts::Mode& mode : base.modes) {
    modes.push_back({mode.fault_nodes, mode.ref, false});
  }
  auto lower = [&modes](const std::vector<uint32_t>& key) {
    return std::lower_bound(modes.begin(), modes.end(), key,
                            [](const ModeEntry& e, const std::vector<uint32_t>& k) {
                              return e.fault_nodes < k;
                            });
  };
  for (const std::vector<uint32_t>& del : patch.dels) {
    auto it = lower(del);
    if (it == modes.end() || it->fault_nodes != del) {
      return Status::InvalidArgument("patch removes a mode the slice does not have");
    }
    modes.erase(it);
  }
  for (const StrategyPatch::ModeRef& set : patch.sets) {
    if (set.ref >= patch.bodies.size()) {
      return Status::InvalidArgument("patch mode reference out of range");
    }
    auto it = lower(set.fault_nodes);
    if (it != modes.end() && it->fault_nodes == set.fault_nodes) {
      it->ref = set.ref;
      it->final_ref = true;
    } else {
      modes.insert(it, {set.fault_nodes, set.ref, true});
    }
  }
  for (ModeEntry& mode : modes) {
    if (mode.final_ref) {
      continue;
    }
    const uint64_t mapped =
        mode.ref < new_from_old.size() ? new_from_old[mode.ref] : UINT32_MAX;
    if (mapped == UINT32_MAX) {
      return Status::InvalidArgument(
          "a kept mode references a dropped body without a re-reference");
    }
    mode.ref = mapped;
  }
  if (modes.size() != patch.final_mode_count) {
    return Status::InvalidArgument("patched mode count does not match the declared total");
  }
  if (modes.empty() || !modes.front().fault_nodes.empty()) {
    return Status::InvalidArgument("patched strategy has no fault-free mode");
  }
  std::vector<char> referenced(patch.bodies.size(), 0);
  for (const ModeEntry& mode : modes) {
    referenced[mode.ref] = 1;
  }
  for (uint32_t id = 0; id < patch.bodies.size(); ++id) {
    if (referenced[id] == 0) {
      return Status::InvalidArgument("patch ships a body no mode references");
    }
  }

  std::vector<Parts::Mode> final_modes;
  final_modes.reserve(modes.size());
  for (ModeEntry& mode : modes) {
    final_modes.push_back({std::move(mode.fault_nodes), mode.ref});
  }
  const std::string result = RenderSliceText(
      base.node, patch.aug_count, patch.node_count, patch.edge_count, patch.has_prov,
      patch.prov_max_faults, patch.prov_planner_fp, patch.target_fp, chunks, final_modes);
  if (FingerprintStrategyText(result) != expect_fp) {
    return Status::InvalidArgument(
        "applied patch does not match the expected slice fingerprint; fall back to a "
        "full install");
  }
  return result;
}

StatusOr<std::string> ReassembleStrategy(const std::vector<std::string>& slices) {
  if (slices.empty()) {
    return Status::InvalidArgument("no slices to reassemble");
  }
  std::vector<Parts> parts;
  parts.reserve(slices.size());
  for (const std::string& slice : slices) {
    StatusOr<Parts> p = ParseParts(slice);
    if (!p.ok()) {
      return p.status();
    }
    if (!p->is_slice) {
      return Status::InvalidArgument("reassembly input must be node slices");
    }
    parts.push_back(std::move(*p));
  }
  const size_t n = parts.size();
  std::vector<const Parts*> by_node(n, nullptr);
  for (const Parts& p : parts) {
    if (p.node_count != n) {
      return Status::InvalidArgument("slice set does not cover the node universe");
    }
    if (by_node[p.node] != nullptr) {
      return Status::InvalidArgument("duplicate slice for node " + std::to_string(p.node));
    }
    by_node[p.node] = &p;
  }
  const Parts& first = *by_node[0];
  for (size_t i = 1; i < n; ++i) {
    const Parts& p = *by_node[i];
    const bool headers_equal =
        p.aug_count == first.aug_count && p.edge_count == first.edge_count &&
        p.has_prov == first.has_prov && p.prov_max_faults == first.prov_max_faults &&
        p.prov_planner_fp == first.prov_planner_fp && p.slice_sfp == first.slice_sfp &&
        p.bodies.size() == first.bodies.size() && p.modes.size() == first.modes.size();
    if (!headers_equal) {
      return Status::InvalidArgument("slices disagree on shared strategy data");
    }
    for (size_t m = 0; m < p.modes.size(); ++m) {
      if (p.modes[m].fault_nodes != first.modes[m].fault_nodes ||
          p.modes[m].ref != first.modes[m].ref) {
        return Status::InvalidArgument("slices disagree on the mode table");
      }
    }
  }

  Parts merged;
  merged.aug_count = first.aug_count;
  merged.node_count = n;
  merged.edge_count = first.edge_count;
  merged.has_prov = first.has_prov;
  merged.prov_max_faults = first.prov_max_faults;
  merged.prov_planner_fp = first.prov_planner_fp;
  merged.modes = first.modes;
  std::string pre;
  std::string t_rows;
  std::string post;
  std::string other_pre;
  std::string other_post;
  for (size_t id = 0; id < first.bodies.size(); ++id) {
    SplitChunk(first.bodies[id], &pre, &t_rows, &post);
    std::string chunk = pre;
    chunk += t_rows;  // node 0's rows come first in the writer's node order
    for (size_t i = 1; i < n; ++i) {
      SplitChunk(by_node[i]->bodies[id], &other_pre, &t_rows, &other_post);
      if (other_pre != pre || other_post != post) {
        return Status::InvalidArgument("slices disagree on shared plan records");
      }
      chunk += t_rows;
    }
    chunk += post;
    merged.bodies.push_back(std::move(chunk));
  }
  const std::string out = strategy_text::RenderBlobText(merged);
  if (FingerprintStrategyText(out) != first.slice_sfp) {
    return Status::InvalidArgument("reassembled blob does not match the recorded fingerprint");
  }
  return out;
}

StatusOr<StrategyUpdate> BuildStrategyUpdate(const std::string& base_blob,
                                             const std::string& target_blob,
                                             StrategyWireFormat format) {
  StatusOr<Parts> base = ParseParts(base_blob);
  if (!base.ok()) {
    return base.status();
  }
  StatusOr<Parts> target = ParseParts(target_blob);
  if (!target.ok()) {
    return target.status();
  }
  StrategyUpdate update;
  update.format = format;
  update.target_blob = target_blob;
  update.base_fp = FingerprintStrategyText(base_blob);
  update.target_fp = FingerprintStrategyText(target_blob);
  StatusOr<StrategyPatch> patch = MakePatchFromParts(*base, *target, update.base_fp,
                                                     update.target_fp, &update.full_slices);
  if (!patch.ok()) {
    return patch.status();
  }
  update.patch_full = SaveStrategyPatch(*patch);
  const uint32_t n = static_cast<uint32_t>(patch->node_count);
  // Base slices describe the already-installed state, so they are always
  // rendered in the text domain regardless of the wire format.
  update.base_slices = RenderAllSlicesOfBlob(*base, update.base_fp);
  StatusOr<std::vector<std::string>> patch_slices = RenderPatchSliceTexts(*patch);
  if (!patch_slices.ok()) {
    return patch_slices.status();
  }
  update.patch_slices = std::move(*patch_slices);
  if (format == StrategyWireFormat::kV4Binary) {
    const fmt::RolloutArtifacts texts{std::move(update.target_blob), std::move(update.patch_full),
                                      std::move(update.full_slices),
                                      std::move(update.patch_slices)};
    StatusOr<fmt::RolloutArtifacts> images = fmt::EncodeRolloutImages(*patch, texts);
    if (!images.ok()) {
      return images.status();
    }
    update.target_blob = std::move(images->blob);
    update.patch_full = std::move(images->patch);
    update.full_slices = std::move(images->slices);
    update.patch_slices = std::move(images->patch_slices);
  }
  update.target_blob_fp = FingerprintStrategyText(update.target_blob);
  update.patch_full_fp = FingerprintStrategyText(update.patch_full);
  update.slice_fps.reserve(n);
  for (uint32_t node = 0; node < n; ++node) {
    update.slice_fps.push_back(FingerprintStrategyText(update.full_slices[node]));
  }
  return update;
}

}  // namespace btr
