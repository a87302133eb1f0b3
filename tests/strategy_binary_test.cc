// v4 binary strategy format suite (src/fmt/*).
//
// Three layers of contract, mirroring the text install plane's oracle
// discipline:
//
//   1. Round trip — DecodeStrategyImage(EncodeStrategyImage(S)) == S
//      byte-for-byte for fuzzed strategies and edit streams (blobs, every
//      node slice, and patch images), and BinaryStrategyView reads the
//      header fields without decoding a body.
//   2. Adversarial — truncation at every section boundary, a bit-flip
//      sweep, forged section counts/offsets (re-sealed so only the
//      structural validators can catch them), out-of-range references,
//      wrong magic, and a mismatched trailer fingerprint must all reject
//      with a clean Status and, driven through InstallEngine, leave the
//      installed state bit-identical (StateFingerprint).
//   3. End-to-end — BuildStrategyUpdate's bulk slice renderers are
//      byte-equal to the per-node primitives, its one-pass v4 images are
//      byte-equal to encoding each text alone, wire=v4 runs report the
//      same installed state as v2 text, and a run on a v4-loaded
//      strategy reports byte-identically to the planned and v2-loaded
//      runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/core/btr_system.h"
#include "src/core/planner.h"
#include "src/core/runtime.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_delta.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/binary_image.h"
#include "src/fmt/strategy_binary.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

struct System {
  Topology topo;
  Dataflow workload{Milliseconds(10)};
  std::unique_ptr<Planner> planner;

  void MakePlanner(const PlannerConfig& config) {
    planner = std::make_unique<Planner>(&topo, &workload, config);
  }
};

// HashString of the concatenated v4 images of the first update in
// AvionicsEditStreamMatchesSingleImageEncodes, computed with the
// per-image encoders that the one-pass rollout encoder replaced.
constexpr uint64_t kAvionicsFirstUpdateDigest = 0x5424a1aa938dd463ULL;

PlannerConfig SmallConfig(uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  config.planner_threads = 2;
  return config;
}

std::string Blob(const Strategy& strategy, const Planner& planner) {
  return SaveStrategy(strategy, planner.graph(), planner.topology());
}

System* MakeBaseSystem(std::deque<System>* generations, const PlannerConfig& config,
                       uint64_t seed = 7) {
  Rng rng(seed);
  RandomDagParams params;
  params.compute_nodes = 4;
  params.layers = 2;
  params.tasks_per_layer = 3;
  Scenario s = MakeRandomScenario(&rng, params);
  System& sys = generations->emplace_back();
  sys.topo = std::move(s.topology);
  sys.workload = std::move(s.workload);
  sys.topo.AddLink({NodeId(2), NodeId(3)}, 25'000'000, Microseconds(2), "xlink");
  sys.MakePlanner(config);
  return &sys;
}

// Round-trips one canonical text through the image codec and maps its
// header; returns how many distinct serializations were checked.
size_t CheckRoundTrip(const std::string& text, const char* label) {
  auto image = fmt::EncodeStrategyImage(text);
  if (!image.ok()) {
    ADD_FAILURE() << label << ": encode failed: " << image.status().ToString();
    return 0;
  }
  EXPECT_TRUE(fmt::IsV4Image(*image)) << label;
  EXPECT_TRUE(fmt::ValidateStrategyImage(*image).ok()) << label;
  auto decoded = fmt::DecodeStrategyImage(*image);
  if (!decoded.ok()) {
    ADD_FAILURE() << label << ": decode failed: " << decoded.status().ToString();
    return 0;
  }
  EXPECT_EQ(*decoded, text) << label << ": decode(encode(S)) diverged";

  auto view = fmt::BinaryStrategyView::Map(*image);
  if (!view.ok()) {
    ADD_FAILURE() << label << ": map failed: " << view.status().ToString();
    return 0;
  }
  EXPECT_EQ(view->text_fingerprint(), FingerprintStrategyText(text)) << label;
  return 1;
}

// --- round trip -------------------------------------------------------------

TEST(StrategyBinary, BlobSlicesAndPatchesRoundTrip) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  const std::string blob = Blob(*strategy, *sys->planner);

  CheckRoundTrip(blob, "blob");
  // The blob header maps without decoding a body.
  auto blob_image = fmt::EncodeStrategyImage(blob);
  ASSERT_TRUE(blob_image.ok());
  auto blob_view = fmt::BinaryStrategyView::Map(*blob_image);
  ASSERT_TRUE(blob_view.ok());
  EXPECT_FALSE(blob_view->is_slice());
  EXPECT_EQ(blob_view->body_count(), strategy->unique_plan_count());
  EXPECT_EQ(blob_view->mode_count(), strategy->mode_count());

  for (uint32_t n = 0; n < sys->topo.node_count(); ++n) {
    auto slice = ExtractSlice(blob, n);
    ASSERT_TRUE(slice.ok());
    const std::string label = "slice " + std::to_string(n);
    CheckRoundTrip(*slice, label.c_str());

    // A slice image carries its node and source-blob chain in the header.
    auto slice_image = fmt::EncodeStrategyImage(*slice);
    ASSERT_TRUE(slice_image.ok()) << slice_image.status().ToString();
    auto view = fmt::BinaryStrategyView::Map(*slice_image);
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(view->is_slice());
    EXPECT_EQ(view->node(), n);
    EXPECT_EQ(view->slice_sfp(), FingerprintStrategyText(blob));
  }

  // Patch image: diff the blob against an edited generation.
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto patch = MakeStrategyPatch(blob, target);
  ASSERT_TRUE(patch.ok());
  const std::string patch_text = SaveStrategyPatch(*patch);
  auto patch_image = fmt::EncodePatchImage(*patch);
  ASSERT_TRUE(patch_image.ok()) << patch_image.status().ToString();
  auto decoded_patch = fmt::DecodePatchImage(*patch_image);
  ASSERT_TRUE(decoded_patch.ok()) << decoded_patch.status().ToString();
  EXPECT_EQ(SaveStrategyPatch(*decoded_patch), patch_text)
      << "patch image did not round-trip to its BTRPATCH text";
  // A patch image maps only through DecodePatchImage.
  EXPECT_FALSE(fmt::BinaryStrategyView::Map(*patch_image).ok());
  EXPECT_FALSE(fmt::DecodeStrategyImage(*patch_image).ok());
}

// Fuzzed oracle: random edit streams over random systems; every blob,
// every node slice, and the inter-generation patch image must round-trip.
TEST(StrategyBinary, FuzzedEditStreamsRoundTrip) {
  constexpr int kSeeds = 8;
  constexpr int kEditsPerSeed = 4;
  size_t checked = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const PlannerConfig config = SmallConfig(1 + seed % 2);
    std::deque<System> generations;
    System* sys = MakeBaseSystem(&generations, config, 11 + seed * 7);
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    if (!strategy.ok()) {
      continue;
    }
    std::string blob = Blob(*strategy, *sys->planner);
    checked += CheckRoundTrip(blob, "fuzz blob");
    for (uint32_t n = 0; n < sys->topo.node_count(); ++n) {
      auto slice = ExtractSlice(blob, n);
      ASSERT_TRUE(slice.ok());
      checked += CheckRoundTrip(*slice, "fuzz slice");
    }

    Rng rng(1000 + static_cast<uint64_t>(seed));
    const System* current = sys;
    int stamp = 0;
    for (int step = 0; step < kEditsPerSeed; ++step) {
      StrategyDelta delta;
      switch (rng.NextBelow(3)) {
        case 0: {
          const std::string name = "fz" + std::to_string(seed) + "_" + std::to_string(stamp++);
          const uint32_t a = static_cast<uint32_t>(rng.NextBelow(current->topo.node_count()));
          const uint32_t b = (a + 1 + static_cast<uint32_t>(rng.NextBelow(
                                          current->topo.node_count() - 1))) %
                             static_cast<uint32_t>(current->topo.node_count());
          delta.edits.push_back(DeltaEdit::LinkAdd(
              name, {NodeId(a), NodeId(b)},
              10'000'000 + static_cast<int64_t>(rng.NextBelow(40'000'000)),
              Microseconds(static_cast<int64_t>(rng.NextBelow(5)) + 1)));
          break;
        }
        case 1: {
          const LinkSpec& link = current->topo.link(
              LinkId(static_cast<uint32_t>(rng.NextBelow(current->topo.link_count()))));
          delta.edits.push_back(DeltaEdit::LinkLatencyChange(
              link.name, std::max<int64_t>(1'000'000, link.bandwidth_bps / 2), -1));
          break;
        }
        default: {
          const std::vector<TaskSpec>& tasks = current->workload.tasks();
          const TaskSpec& task = tasks[rng.NextBelow(tasks.size())];
          delta.edits.push_back(DeltaEdit::TaskReweight(
              task.name, static_cast<Criticality>(rng.NextBelow(kCriticalityLevels))));
          break;
        }
      }
      System& next = generations.emplace_back();
      if (!ApplyDelta(current->topo, current->workload, delta, &next.topo, &next.workload)
               .ok()) {
        generations.pop_back();
        continue;
      }
      next.MakePlanner(config);
      StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
      auto next_strategy = next_builder.Build();
      if (!next_strategy.ok()) {
        break;
      }
      const std::string next_blob = Blob(*next_strategy, *next.planner);
      checked += CheckRoundTrip(next_blob, "fuzz edited blob");
      for (uint32_t n = 0; n < next.topo.node_count(); ++n) {
        auto slice = ExtractSlice(next_blob, n);
        ASSERT_TRUE(slice.ok());
        checked += CheckRoundTrip(*slice, "fuzz edited slice");
      }
      auto patch = MakeStrategyPatch(blob, next_blob);
      ASSERT_TRUE(patch.ok());
      auto patch_image = fmt::EncodePatchImage(*patch);
      ASSERT_TRUE(patch_image.ok()) << patch_image.status().ToString();
      auto decoded = fmt::DecodePatchImage(*patch_image);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(SaveStrategyPatch(*decoded), SaveStrategyPatch(*patch));
      ++checked;
      blob = next_blob;
      current = &next;
    }
  }
  // The oracle only means something at volume: strategies, slices, and
  // patches across seeds and edit streams.
  EXPECT_GE(checked, 200u);
}

// --- v2 interchange ---------------------------------------------------------

TEST(StrategyBinary, SaveV4LoadsBackAndRecordsSourceFormat) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string v2 = Blob(*strategy, *sys->planner);

  auto v4 = SaveStrategyV4(*strategy, sys->planner->graph(), sys->topo);
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  EXPECT_TRUE(fmt::IsV4Image(*v4));

  auto from_v2 = LoadStrategy(v2, sys->planner->graph(), sys->topo);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  EXPECT_EQ(from_v2->provenance().source_format, 2u);
  auto from_v4 = LoadStrategy(*v4, sys->planner->graph(), sys->topo);
  ASSERT_TRUE(from_v4.ok()) << from_v4.status().ToString();
  EXPECT_EQ(from_v4->provenance().source_format, 4u);

  // Either load re-serializes to the same canonical v2 text.
  EXPECT_EQ(Blob(*from_v2, *sys->planner), v2);
  EXPECT_EQ(Blob(*from_v4, *sys->planner), v2);
}

// --- adversarial ------------------------------------------------------------

struct ImageFixture {
  std::deque<System> generations;
  PlannerConfig config = SmallConfig(1);
  std::string blob;           // canonical v2 text
  std::string blob_image;     // v4 image of the blob
  std::string slice0;         // node 0's text slice
  std::string slice0_image;   // v4 image of node 0's slice
  uint64_t blob_fp = 0;

  ImageFixture() {
    System* sys = MakeBaseSystem(&generations, config);
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    EXPECT_TRUE(strategy.ok());
    blob = Blob(*strategy, *sys->planner);
    blob_fp = FingerprintStrategyText(blob);
    auto image = fmt::EncodeStrategyImage(blob);
    EXPECT_TRUE(image.ok());
    blob_image = std::move(*image);
    auto slice = ExtractSlice(blob, 0);
    EXPECT_TRUE(slice.ok());
    slice0 = std::move(*slice);
    auto slice_image = fmt::EncodeStrategyImage(slice0);
    EXPECT_TRUE(slice_image.ok());
    slice0_image = std::move(*slice_image);
  }

  // A fresh engine with node 0's slice image installed.
  InstallEngine EngineFor0() const {
    InstallEngine engine{NodeId(0)};
    EXPECT_TRUE(engine.InstallFull(slice0_image, blob_fp).ok());
    return engine;
  }
};

// Recomputes the trailing seal so forged structural fields survive the
// integrity check and must be caught by the validators proper.
void Reseal(std::string* image) {
  ASSERT_GE(image->size(), 8u);
  const uint64_t seal = HashBytes(image->data(), image->size() - 8);
  for (int i = 0; i < 8; ++i) {
    (*image)[image->size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((seal >> (8 * i)) & 0xff);
  }
}

uint64_t ReadFixed64At(const std::string& image, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(image[at + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void WriteFixed64At(std::string* image, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*image)[at + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Expects the image to be rejected by every consumer, and by an engine
// holding installed state, without mutating that state.
void ExpectRejectedEverywhere(const ImageFixture& fx, const std::string& corrupt,
                              const char* label) {
  EXPECT_FALSE(fmt::ValidateStrategyImage(corrupt).ok()) << label;
  EXPECT_FALSE(fmt::DecodeStrategyImage(corrupt).ok()) << label;
  EXPECT_FALSE(fmt::BinaryStrategyView::Map(corrupt).ok()) << label;

  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(engine.InstallFull(corrupt, fx.blob_fp).ok()) << label;
  EXPECT_EQ(engine.StateFingerprint(), before)
      << label << ": rejected install mutated engine state";
}

TEST(StrategyBinaryCorruption, TruncationAtEverySectionBoundary) {
  ImageFixture fx;
  // Section offsets live in the table at bytes 24 + i*24 (+8 for offset).
  std::vector<size_t> cuts = {0, 1, 7, 8, fmt::kHeaderBytes - 1, fmt::kHeaderBytes};
  for (uint32_t i = 0; i < fmt::kSectionCount; ++i) {
    const size_t entry = 24 + i * fmt::kSectionEntryBytes;
    const uint64_t offset = ReadFixed64At(fx.slice0_image, entry + 8);
    const uint64_t size = ReadFixed64At(fx.slice0_image, entry + 16);
    cuts.push_back(static_cast<size_t>(offset));
    cuts.push_back(static_cast<size_t>(offset) + 1);
    cuts.push_back(static_cast<size_t>(offset + size) - 1);
    cuts.push_back(static_cast<size_t>(offset + size));
  }
  cuts.push_back(fx.slice0_image.size() - 9);
  cuts.push_back(fx.slice0_image.size() - 1);
  for (size_t cut : cuts) {
    if (cut >= fx.slice0_image.size()) {
      continue;  // a section ending at image size is not a truncation
    }
    const std::string corrupt = fx.slice0_image.substr(0, cut);
    ExpectRejectedEverywhere(fx, corrupt,
                             ("truncated at " + std::to_string(cut)).c_str());
  }
}

TEST(StrategyBinaryCorruption, BitFlipSweepNeverInstalls) {
  ImageFixture fx;
  // Every byte, one flipped bit each (rotating bit position): the seal
  // catches all of them except flips inside the seal itself, which fail
  // the seal comparison instead. No re-seal here — this is the transit-
  // corruption model.
  size_t rejected = 0;
  for (size_t i = 0; i < fx.slice0_image.size(); ++i) {
    std::string corrupt = fx.slice0_image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
    InstallEngine engine = fx.EngineFor0();
    const uint64_t before = engine.StateFingerprint();
    const bool accepted = engine.InstallFull(corrupt, fx.blob_fp).ok();
    EXPECT_FALSE(accepted) << "bit flip at byte " << i << " was installed";
    if (!accepted) {
      ++rejected;
      EXPECT_EQ(engine.StateFingerprint(), before) << "byte " << i;
    }
    // The blob decoder must reject it too (never crash).
    EXPECT_FALSE(fmt::DecodeStrategyImage(corrupt).ok()) << "byte " << i;
  }
  EXPECT_EQ(rejected, fx.slice0_image.size());
}

TEST(StrategyBinaryCorruption, WrongMagicAndKind) {
  ImageFixture fx;
  std::string corrupt = fx.slice0_image;
  corrupt[0] = 'X';
  Reseal(&corrupt);  // even re-sealed, the magic check rejects it
  ExpectRejectedEverywhere(fx, corrupt, "wrong magic");

  // Kind forged from slice to blob (re-sealed): the shell parses the META
  // section under the wrong grammar or the engine refuses a non-slice.
  std::string forged_kind = fx.slice0_image;
  forged_kind[8] = static_cast<char>(fmt::kKindBlob);
  Reseal(&forged_kind);
  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(engine.InstallFull(forged_kind, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);

  // Kind byte outside the known set.
  std::string bad_kind = fx.slice0_image;
  bad_kind[8] = 9;
  Reseal(&bad_kind);
  ExpectRejectedEverywhere(fx, bad_kind, "unknown kind");
}

TEST(StrategyBinaryCorruption, ForgedSectionTable) {
  ImageFixture fx;
  for (uint32_t i = 0; i < fmt::kSectionCount; ++i) {
    const size_t entry = 24 + i * fmt::kSectionEntryBytes;
    {
      std::string forged = fx.slice0_image;  // offset pushed past the end
      WriteFixed64At(&forged, entry + 8, forged.size() + 64);
      Reseal(&forged);
      ExpectRejectedEverywhere(fx, forged,
                               ("forged offset, section " + std::to_string(i)).c_str());
    }
    {
      std::string forged = fx.slice0_image;  // size inflated past the end
      const uint64_t size = ReadFixed64At(forged, entry + 16);
      WriteFixed64At(&forged, entry + 16, size + forged.size());
      Reseal(&forged);
      ExpectRejectedEverywhere(fx, forged,
                               ("forged size, section " + std::to_string(i)).c_str());
    }
    {
      std::string forged = fx.slice0_image;  // misaligned offset
      const uint64_t offset = ReadFixed64At(forged, entry + 8);
      WriteFixed64At(&forged, entry + 8, offset + 1);
      Reseal(&forged);
      ExpectRejectedEverywhere(fx, forged,
                               ("misaligned offset, section " + std::to_string(i)).c_str());
    }
  }
  // Forged image-size field (header offset 16).
  std::string forged = fx.slice0_image;
  WriteFixed64At(&forged, 16, forged.size() - 8);
  Reseal(&forged);
  ExpectRejectedEverywhere(fx, forged, "forged image size");
}

TEST(StrategyBinaryCorruption, ResealedPayloadForgerySweepNeverCrashes) {
  ImageFixture fx;
  // Adversary model upgrade over the bit-flip sweep: overwrite one payload
  // byte at a time and RE-SEAL, so the integrity check passes and the
  // forgery reaches the section validators — out-of-range dictionary /
  // parent / mode refs, truncated varints, non-minimal encodings, forged
  // counts. Three clean outcomes are allowed, and nothing else:
  //   - structural/grammar validation rejects it (engine refuses, state
  //     bit-identical);
  //   - it survives validation but the forged content is caught by the
  //     trailer text fingerprint the moment text is decoded, which the
  //     engine does on install (a self-consistent forgery is outside the
  //     corruption model the fingerprints defend — see
  //     docs/strategy_format.md — but it must still fail *cleanly*, never
  //     silently yield wrong text);
  //   - the byte was semantically inert and the image still decodes to the
  //     exact original text.
  size_t rejected = 0;
  size_t forged_content = 0;
  size_t benign = 0;
  for (size_t i = fmt::kHeaderBytes; i + 8 < fx.slice0_image.size(); ++i) {
    std::string forged = fx.slice0_image;
    if (static_cast<unsigned char>(forged[i]) == 0xFF) {
      continue;
    }
    forged[i] = static_cast<char>(0xFF);
    Reseal(&forged);
    const bool valid = fmt::ValidateStrategyImage(forged).ok();
    auto decoded = fmt::DecodeStrategyImage(forged);
    if (!decoded.ok()) {
      if (valid) {
        ++forged_content;
      } else {
        ++rejected;
      }
      InstallEngine engine = fx.EngineFor0();
      const uint64_t before = engine.StateFingerprint();
      EXPECT_FALSE(engine.InstallFull(forged, fx.blob_fp).ok()) << "byte " << i;
      EXPECT_EQ(engine.StateFingerprint(), before) << "byte " << i;
    } else if (!valid) {
      ADD_FAILURE() << "byte " << i << ": invalid image decoded";
    } else {
      ++benign;
      EXPECT_EQ(*decoded, fx.slice0) << "byte " << i << " forged text undetected";
    }
  }
  // The sweep only means something if the validators did real work.
  EXPECT_GT(rejected, 0u);
  SUCCEED() << rejected << " rejected, " << forged_content << " fingerprint-caught, "
            << benign << " benign";
}

TEST(StrategyBinaryCorruption, MismatchedTrailerFingerprint) {
  ImageFixture fx;
  // The trailer's text fingerprint lives in its last 16..9 bytes (fixed64
  // before the 8-byte seal). Forge it and re-seal: the image is
  // structurally perfect, so only the decode-time text hash can catch it.
  std::string forged = fx.slice0_image;
  const size_t text_fp_at = forged.size() - 16;
  WriteFixed64At(&forged, text_fp_at, ReadFixed64At(forged, text_fp_at) ^ 1);
  Reseal(&forged);
  EXPECT_FALSE(fmt::DecodeStrategyImage(forged).ok());
  // The chain fingerprint in META is intact, but the engine decodes on
  // install, so the text hash refuses it with the state bit-identical.
  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(engine.InstallFull(forged, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
}

TEST(StrategyBinaryCorruption, WrongNodeAndWrongChainReject) {
  ImageFixture fx;
  // Node 1's slice image refused by node 0's engine.
  auto slice1_text = ExtractSlice(fx.blob, 1);
  ASSERT_TRUE(slice1_text.ok());
  auto slice1 = fmt::EncodeStrategyImage(*slice1_text);
  ASSERT_TRUE(slice1.ok());
  InstallEngine engine = fx.EngineFor0();
  const uint64_t before = engine.StateFingerprint();
  EXPECT_FALSE(engine.InstallFull(*slice1, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
  // The right slice against the wrong expected chain fingerprint.
  EXPECT_FALSE(engine.InstallFull(fx.slice0_image, fx.blob_fp ^ 1).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
  // A full-blob image is not installable as a slice.
  EXPECT_FALSE(engine.InstallFull(fx.blob_image, fx.blob_fp).ok());
  EXPECT_EQ(engine.StateFingerprint(), before);
}

TEST(StrategyBinaryCorruption, PatchImageSweepNeverAppliesPartially) {
  ImageFixture fx;
  // Build a real patch image, then drive truncations and flips through
  // ApplyPatch on an engine that already holds the base slice image.
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = fx.generations.emplace_back();
  const System& base_sys = fx.generations.front();
  ASSERT_TRUE(ApplyDelta(base_sys.topo, base_sys.workload, delta, &next.topo, &next.workload)
                  .ok());
  next.MakePlanner(fx.config);
  StrategyBuilder builder(next.planner.get(), fx.config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string target = Blob(*strategy, *next.planner);
  auto patch = MakeStrategyPatch(fx.blob, target);
  ASSERT_TRUE(patch.ok());
  auto patch_slice = MakeStrategyPatchSlice(*patch, 0);
  ASSERT_TRUE(patch_slice.ok());
  auto patch_image = fmt::EncodePatchImage(*patch_slice);
  ASSERT_TRUE(patch_image.ok()) << patch_image.status().ToString();

  // The intact image applies; the engine ends on the target chain.
  {
    InstallEngine engine = fx.EngineFor0();
    ASSERT_TRUE(engine.ApplyPatch(*patch_image).ok());
    EXPECT_EQ(engine.strategy_fingerprint(), FingerprintStrategyText(target));
    auto expect = ExtractSlice(target, 0);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(engine.slice(), *expect);
  }
  // Corrupted copies never do.
  for (size_t i = 0; i < patch_image->size(); i += 7) {
    std::string corrupt = *patch_image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    InstallEngine engine = fx.EngineFor0();
    const uint64_t before = engine.StateFingerprint();
    EXPECT_FALSE(engine.ApplyPatch(corrupt).ok()) << "flip at " << i;
    EXPECT_EQ(engine.StateFingerprint(), before) << "flip at " << i;
  }
  for (size_t cut : {size_t{0}, size_t{8}, patch_image->size() / 2, patch_image->size() - 1}) {
    const std::string corrupt = patch_image->substr(0, cut);
    InstallEngine engine = fx.EngineFor0();
    const uint64_t before = engine.StateFingerprint();
    EXPECT_FALSE(engine.ApplyPatch(corrupt).ok()) << "cut at " << cut;
    EXPECT_EQ(engine.StateFingerprint(), before) << "cut at " << cut;
  }
}

// --- bulk slice rendering (the O(blob + slices) fix) ------------------------

TEST(StrategyBinary, BulkSliceRenderersMatchPerNodePrimitives) {
  const PlannerConfig config = SmallConfig(2);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string base = Blob(*strategy, *sys->planner);

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  delta.edits.push_back(DeltaEdit::TaskReweight("snk0", Criticality::kSafetyCritical));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto update = BuildStrategyUpdate(base, target);
  ASSERT_TRUE(update.ok());
  auto patch = MakeStrategyPatch(base, target);
  ASSERT_TRUE(patch.ok());

  // The bulk renderers inside BuildStrategyUpdate must be byte-equal to
  // the per-node primitives they replaced.
  for (uint32_t n = 0; n < next.topo.node_count(); ++n) {
    auto base_slice = ExtractSlice(base, n);
    auto full_slice = ExtractSlice(target, n);
    auto patch_slice_text = SaveStrategyPatchSlice(*patch, n);
    ASSERT_TRUE(base_slice.ok() && full_slice.ok() && patch_slice_text.ok());
    EXPECT_EQ(update->base_slices[n], *base_slice) << "node " << n;
    EXPECT_EQ(update->full_slices[n], *full_slice) << "node " << n;
    EXPECT_EQ(update->patch_slices[n], *patch_slice_text) << "node " << n;
    EXPECT_EQ(update->slice_fps[n], FingerprintStrategyText(*full_slice)) << "node " << n;
  }
  EXPECT_EQ(update->target_blob_fp, update->target_fp);  // v2: same bytes
}

TEST(StrategyBinary, V4UpdateShipsImagesWithMatchingFingerprints) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string base = Blob(*strategy, *sys->planner);

  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto v2 = BuildStrategyUpdate(base, target, StrategyWireFormat::kV2Text);
  auto v4 = BuildStrategyUpdate(base, target, StrategyWireFormat::kV4Binary);
  ASSERT_TRUE(v2.ok() && v4.ok());

  // The text-domain identity chain is format-invariant.
  EXPECT_EQ(v4->base_fp, v2->base_fp);
  EXPECT_EQ(v4->target_fp, v2->target_fp);
  // Shipped artifacts are images, content-fingerprinted as shipped bytes.
  EXPECT_TRUE(fmt::IsV4Image(v4->target_blob));
  EXPECT_TRUE(fmt::IsV4Image(v4->patch_full));
  EXPECT_EQ(v4->target_blob_fp, FingerprintStrategyText(v4->target_blob));
  EXPECT_EQ(v4->patch_full_fp, FingerprintStrategyText(v4->patch_full));
  for (uint32_t n = 0; n < v4->full_slices.size(); ++n) {
    EXPECT_TRUE(fmt::IsV4Image(v4->full_slices[n])) << n;
    EXPECT_TRUE(fmt::IsV4Image(v4->patch_slices[n])) << n;
    EXPECT_EQ(v4->slice_fps[n], FingerprintStrategyText(v4->full_slices[n])) << n;
    // Base slices describe the installed (text) state either way.
    EXPECT_EQ(v4->base_slices[n], v2->base_slices[n]) << n;
    // The image decodes to exactly the v2 slice text.
    auto decoded = fmt::DecodeStrategyImage(v4->full_slices[n]);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v2->full_slices[n]) << n;
  }

  // Format invariance: the installed state does not depend on the wire
  // format an artifact arrived in.
  for (uint32_t n = 0; n < v4->full_slices.size(); ++n) {
    InstallEngine patched{NodeId(n)};
    ASSERT_TRUE(patched.InstallFull(v4->base_slices[n], v4->base_fp).ok());
    ASSERT_TRUE(patched.ApplyPatch(v4->patch_slices[n]).ok()) << "node " << n;
    EXPECT_EQ(patched.strategy_fingerprint(), v4->target_fp);
    EXPECT_EQ(patched.slice(), v2->full_slices[n]) << "node " << n;

    // A full slice installed from the v4 image or from the v2 text.
    InstallEngine from_image{NodeId(n)};
    InstallEngine from_text{NodeId(n)};
    ASSERT_TRUE(from_image.InstallFull(v4->full_slices[n], v4->target_fp).ok()) << n;
    ASSERT_TRUE(from_text.InstallFull(v2->full_slices[n], v2->target_fp).ok()) << n;
    EXPECT_EQ(from_image.slice(), from_text.slice()) << "node " << n;
    EXPECT_EQ(from_image.StateFingerprint(), from_text.StateFingerprint()) << "node " << n;

    // The v4 patch applied on top of either leaves equal state: on a base
    // slice installed from its image or its text it lands on the same
    // target state; on the target it is refused by both alike.
    InstallEngine image_base{NodeId(n)};
    auto base_slice_image = fmt::EncodeStrategyImage(v4->base_slices[n]);
    ASSERT_TRUE(base_slice_image.ok()) << n;
    ASSERT_TRUE(image_base.InstallFull(*base_slice_image, v4->base_fp).ok()) << n;
    ASSERT_TRUE(image_base.ApplyPatch(v4->patch_slices[n]).ok()) << "node " << n;
    EXPECT_EQ(image_base.slice(), patched.slice()) << "node " << n;
    EXPECT_EQ(image_base.StateFingerprint(), patched.StateFingerprint()) << "node " << n;
    EXPECT_FALSE(from_image.ApplyPatch(v4->patch_slices[n]).ok()) << "node " << n;
    EXPECT_FALSE(from_text.ApplyPatch(v4->patch_slices[n]).ok()) << "node " << n;
    EXPECT_EQ(from_image.StateFingerprint(), from_text.StateFingerprint()) << "node " << n;
  }
}

// --- one-pass rollout encoding ----------------------------------------------

// Bodies of a slice text (PLAN .. END) that hold no T row of the slice's node.
size_t BodiesWithoutTRows(const std::string& slice_text) {
  size_t count = 0;
  bool in_body = false;
  bool saw_t = false;
  size_t pos = 0;
  while (pos < slice_text.size()) {
    const size_t nl = slice_text.find('\n', pos);
    const std::string line = slice_text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("PLAN ", 0) == 0) {
      in_body = true;
      saw_t = false;
    } else if (in_body && line.rfind("T ", 0) == 0) {
      saw_t = true;
    } else if (in_body && line == "END") {
      count += saw_t ? 0 : 1;
      in_body = false;
    }
  }
  return count;
}

// Every v4 artifact of BuildStrategyUpdate(base, target) must be byte-equal
// to encoding its text alone. Returns the (node, body) pairs in which the
// node keeps no T row, so callers can check that case was exercised.
size_t ExpectRolloutMatchesSingleEncodes(const std::string& base, const std::string& target,
                                         const std::string& label) {
  auto update = BuildStrategyUpdate(base, target, StrategyWireFormat::kV4Binary);
  auto patch = MakeStrategyPatch(base, target);
  if (!update.ok() || !patch.ok()) {
    ADD_FAILURE() << label << ": "
                  << (!update.ok() ? update.status() : patch.status()).ToString();
    return 0;
  }
  auto blob_image = fmt::EncodeStrategyImage(target);
  auto patch_image = fmt::EncodePatchImage(*patch);
  if (!blob_image.ok() || !patch_image.ok()) {
    ADD_FAILURE() << label << ": single-image encode failed";
    return 0;
  }
  EXPECT_EQ(update->target_blob, *blob_image) << label;
  EXPECT_EQ(update->patch_full, *patch_image) << label;
  size_t empty = 0;
  for (uint32_t n = 0; n < patch->node_count; ++n) {
    auto slice = ExtractSlice(target, n);
    auto sliced = MakeStrategyPatchSlice(*patch, n);
    if (!slice.ok() || !sliced.ok()) {
      ADD_FAILURE() << label << ": slicing node " << n << " failed";
      return 0;
    }
    auto slice_image = fmt::EncodeStrategyImage(*slice);
    auto patch_slice_image = fmt::EncodePatchImage(*sliced);
    if (!slice_image.ok() || !patch_slice_image.ok()) {
      ADD_FAILURE() << label << ": single-image encode of node " << n << " failed";
      return 0;
    }
    EXPECT_EQ(update->full_slices[n], *slice_image) << label << " node " << n;
    EXPECT_EQ(update->patch_slices[n], *patch_slice_image) << label << " node " << n;
    empty += BodiesWithoutTRows(*slice);
  }
  return empty;
}

// Fuzzed edit streams over random systems (as in FuzzedEditStreamsRoundTrip):
// each generation's rollout images against the single-image encoders.
TEST(StrategyBinaryRollout, FuzzedUpdatesMatchSingleImageEncodes) {
  constexpr int kSeeds = 6;
  constexpr int kEditsPerSeed = 3;
  size_t updates = 0;
  size_t empty_bodies = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const PlannerConfig config = SmallConfig(1 + seed % 2);
    std::deque<System> generations;
    System* sys = MakeBaseSystem(&generations, config, 11 + seed * 7);
    StrategyBuilder builder(sys->planner.get(), config.planner_threads);
    auto strategy = builder.Build();
    if (!strategy.ok()) {
      continue;
    }
    std::string blob = Blob(*strategy, *sys->planner);
    Rng rng(2000 + static_cast<uint64_t>(seed));
    const System* current = sys;
    for (int step = 0; step < kEditsPerSeed; ++step) {
      StrategyDelta delta;
      if (rng.NextBelow(2) == 0) {
        const LinkSpec& link = current->topo.link(
            LinkId(static_cast<uint32_t>(rng.NextBelow(current->topo.link_count()))));
        delta.edits.push_back(DeltaEdit::LinkLatencyChange(
            link.name, std::max<int64_t>(1'000'000, link.bandwidth_bps / 2), -1));
      } else {
        const std::vector<TaskSpec>& tasks = current->workload.tasks();
        const TaskSpec& task = tasks[rng.NextBelow(tasks.size())];
        delta.edits.push_back(DeltaEdit::TaskReweight(
            task.name, static_cast<Criticality>(rng.NextBelow(kCriticalityLevels))));
      }
      System& next = generations.emplace_back();
      if (!ApplyDelta(current->topo, current->workload, delta, &next.topo, &next.workload)
               .ok()) {
        generations.pop_back();
        continue;
      }
      next.MakePlanner(config);
      StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
      auto next_strategy = next_builder.Build();
      if (!next_strategy.ok()) {
        break;
      }
      const std::string next_blob = Blob(*next_strategy, *next.planner);
      empty_bodies += ExpectRolloutMatchesSingleEncodes(
          blob, next_blob, "seed " + std::to_string(seed) + " edit " + std::to_string(step));
      ++updates;
      blob = next_blob;
      current = &next;
    }
  }
  EXPECT_GE(updates, 12u);
  // Some node keeps no T row in some body, so that case is exercised.
  EXPECT_GT(empty_bodies, 0u);
}

// An edit_rollout-shaped stream: avionics with 8 flight computers (12
// nodes), f=2, backbone remeasures plus a backboneB remove / re-add, each
// edit rebuilt incrementally. The first update's images are pinned by
// digest, so the one-pass encoder also stays byte-equal across commits.
TEST(StrategyBinaryRollout, AvionicsEditStreamMatchesSingleImageEncodes) {
  auto scenario = MakeNamedScenario("avionics", 8, 1);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  BtrConfig config;
  config.planner.max_faults = 2;
  config.planner.recovery_bound = Milliseconds(500);
  config.runtime.heartbeats = false;
  BtrSystem system(*scenario, config);
  ASSERT_TRUE(system.Plan().ok());
  const auto blob = [&system] {
    return SaveStrategy(system.strategy(), system.planner().graph(),
                        system.scenario().topology);
  };
  std::vector<NodeId> all_nodes;
  for (uint32_t n = 0; n < 12; ++n) {
    all_nodes.push_back(NodeId(n));
  }
  const std::vector<DeltaEdit> edits = {
      DeltaEdit::LinkLatencyChange("backboneB", 50'000'000, Microseconds(4)),
      DeltaEdit::LinkLatencyChange("backboneA", 80'000'000, Microseconds(5)),
      DeltaEdit::LinkRemove("backboneB"),
      DeltaEdit::LinkAdd("backboneB", all_nodes, 100'000'000, Microseconds(2)),
  };
  size_t empty_bodies = 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    const std::string base = blob();
    StrategyDelta delta;
    delta.edits.push_back(edits[i]);
    ASSERT_TRUE(system.ApplyDelta(delta).ok()) << "edit " << i;
    const std::string target = blob();
    empty_bodies += ExpectRolloutMatchesSingleEncodes(base, target, "edit " + std::to_string(i));
    if (i == 0) {
      auto update = BuildStrategyUpdate(base, target, StrategyWireFormat::kV4Binary);
      ASSERT_TRUE(update.ok());
      std::string images = update->target_blob + update->patch_full;
      for (uint32_t n = 0; n < update->full_slices.size(); ++n) {
        images += update->full_slices[n] + update->patch_slices[n];
      }
      EXPECT_EQ(HashString(images), kAvionicsFirstUpdateDigest)
          << std::hex << HashString(images);
    }
  }
  EXPECT_GT(empty_bodies, 0u);
}

// A body whose T rows for one node are split into several runs: the slice
// text holds them as one run, and the one-pass encoder must concatenate
// them as a parse of that text would.
TEST(StrategyBinaryRollout, SplitTableRunsMatchSingleImageEncodes) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string base = Blob(*strategy, *sys->planner);

  // In the first body whose first node has two or more T rows and is not
  // the last node, move that node's first row to the end of the T rows.
  const auto node_of = [](const std::string& row) { return row.substr(0, row.find(' ', 2)); };
  std::string target;
  bool moved = false;
  size_t pos = 0;
  std::vector<std::string> t_rows;
  while (pos < base.size()) {
    const size_t nl = base.find('\n', pos);
    const std::string line = base.substr(pos, nl - pos + 1);
    pos = nl + 1;
    if (!moved && line.rfind("T ", 0) == 0) {
      t_rows.push_back(line);
      continue;
    }
    if (!t_rows.empty()) {
      if (t_rows.size() >= 3 && node_of(t_rows[0]) == node_of(t_rows[1]) &&
          node_of(t_rows[0]) != node_of(t_rows.back())) {
        t_rows.push_back(t_rows.front());
        t_rows.erase(t_rows.begin());
        moved = true;
      }
      for (const std::string& row : t_rows) {
        target += row;
      }
      t_rows.clear();
    }
    target += line;
  }
  ASSERT_TRUE(moved);
  ASSERT_NE(target, base);
  ExpectRolloutMatchesSingleEncodes(base, target, "split runs");
}

// The self-check is live: an image that does not decode to the text it was
// encoded for never ships.
TEST(StrategyBinaryRollout, SelfCheckRejectsMismatchedTexts) {
  const PlannerConfig config = SmallConfig(1);
  std::deque<System> generations;
  System* sys = MakeBaseSystem(&generations, config);
  StrategyBuilder builder(sys->planner.get(), config.planner_threads);
  auto strategy = builder.Build();
  ASSERT_TRUE(strategy.ok());
  const std::string base = Blob(*strategy, *sys->planner);
  StrategyDelta delta;
  delta.edits.push_back(DeltaEdit::LinkRemove("xlink"));
  System& next = generations.emplace_back();
  ASSERT_TRUE(ApplyDelta(sys->topo, sys->workload, delta, &next.topo, &next.workload).ok());
  next.MakePlanner(config);
  StrategyBuilder next_builder(next.planner.get(), config.planner_threads);
  auto next_strategy = next_builder.Build();
  ASSERT_TRUE(next_strategy.ok());
  const std::string target = Blob(*next_strategy, *next.planner);

  auto update = BuildStrategyUpdate(base, target, StrategyWireFormat::kV2Text);
  auto patch = MakeStrategyPatch(base, target);
  ASSERT_TRUE(update.ok() && patch.ok());
  const fmt::RolloutArtifacts texts{update->target_blob, update->patch_full,
                                    update->full_slices, update->patch_slices};
  ASSERT_TRUE(fmt::EncodeRolloutImages(*patch, texts).ok());

  fmt::RolloutArtifacts swapped_slice = texts;
  std::swap(swapped_slice.slices[0], swapped_slice.slices[1]);
  auto images = fmt::EncodeRolloutImages(*patch, swapped_slice);
  ASSERT_FALSE(images.ok());
  EXPECT_EQ(images.status().code(), StatusCode::kInternal);

  fmt::RolloutArtifacts swapped_patch = texts;
  std::swap(swapped_patch.patch_slices[0], swapped_patch.patch_slices[1]);
  images = fmt::EncodeRolloutImages(*patch, swapped_patch);
  ASSERT_FALSE(images.ok());
  EXPECT_EQ(images.status().code(), StatusCode::kInternal);

  fmt::RolloutArtifacts short_list = texts;
  short_list.slices.pop_back();
  EXPECT_FALSE(fmt::EncodeRolloutImages(*patch, short_list).ok());
}

// --- spec plumbing (pace-fraction=, wire=) ----------------------------------

TEST(StrategyBinarySpec, PaceFractionAndWireRoundTripCanonically) {
  const std::string text =
      "BTRX 1\n"
      "NAME fmt\n"
      "SCENARIO convoy nodes=8\n"
      "CONFIG f=1 recovery-us=800000 seed=3 pace-fraction=0.125 wire=v4\n"
      "PHASE periods=10\n"
      "END\n";
  auto spec = ParseExperimentSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->pace_mille, 125u);
  EXPECT_EQ(spec->wire_version, 4u);
  EXPECT_EQ(SerializeExperimentSpec(*spec), text);

  const BtrConfig config = MakeBtrConfig(*spec);
  EXPECT_DOUBLE_EQ(config.runtime.dissem.pace_fraction, 0.125);
  EXPECT_EQ(config.wire_format, StrategyWireFormat::kV4Binary);

  // Defaults serialize as absent keys; wire=v2 is the default spelling.
  spec->pace_mille = 0;
  spec->wire_version = 0;
  const std::string out = SerializeExperimentSpec(*spec);
  EXPECT_EQ(out.find("pace-fraction"), std::string::npos);
  EXPECT_EQ(out.find("wire="), std::string::npos);

  // Canonical spellings for the value grammar.
  uint32_t mille = 0;
  EXPECT_TRUE(ParsePaceFraction("1", &mille));
  EXPECT_EQ(mille, 1000u);
  EXPECT_TRUE(ParsePaceFraction("0.5", &mille));
  EXPECT_EQ(mille, 500u);
  EXPECT_TRUE(ParsePaceFraction("0.001", &mille));
  EXPECT_EQ(mille, 1u);
  EXPECT_EQ(PaceFractionText(250), "0.25");
  EXPECT_EQ(PaceFractionText(1000), "1");
  EXPECT_EQ(PaceFractionText(5), "0.005");
  for (const char* bad : {"0", "0.0", "0.250", "1.5", "2", ".25", "0.2500", "-0.5", "0.",
                          "0.x"}) {
    EXPECT_FALSE(ParsePaceFraction(bad, &mille)) << bad;
  }
}

TEST(StrategyBinarySpec, RejectsMalformedKeys) {
  const char* kBad[] = {
      "CONFIG f=1 recovery-us=800000 seed=3 pace-fraction=0\n",
      "CONFIG f=1 recovery-us=800000 seed=3 pace-fraction=2\n",
      "CONFIG f=1 recovery-us=800000 seed=3 pace-fraction=0.250\n",
      "CONFIG f=1 recovery-us=800000 seed=3 wire=v3\n",
      "CONFIG f=1 recovery-us=800000 seed=3 wire=binary\n",
  };
  for (const char* config : kBad) {
    const std::string text = std::string("BTRX 1\nNAME fmt\nSCENARIO convoy nodes=8\n") +
                             config + "PHASE periods=10\nEND\n";
    EXPECT_FALSE(ParseExperimentSpec(text).ok()) << config;
  }
}

// --- end-to-end: format invariance ------------------------------------------

std::string RolloutSpecText(const std::string& extra_config) {
  return "BTRX 1\n"
         "NAME fmt_convoy\n"
         "SCENARIO convoy nodes=8\n"
         "CONFIG f=1 recovery-us=800000 seed=3" +
         extra_config +
         "\n"
         "PHASE periods=60\n"
         "EDIT at-us=600000 kind=task-add name=gap_log task-kind=sink wcet-us=80"
         " crit=best-effort node=0 deadline-us=20000 chan=gap_est1:gap_log:64\n"
         "END\n";
}

TEST(StrategyBinaryE2E, GossipV4RolloutInstallsEverywhereAndShipsFewerBytes) {
  auto v2_spec = ParseExperimentSpec(RolloutSpecText(""));
  auto v4_spec = ParseExperimentSpec(RolloutSpecText(" wire=v4"));
  ASSERT_TRUE(v2_spec.ok() && v4_spec.ok());
  auto v2 = RunExperiment(*v2_spec);
  auto v4 = RunExperiment(*v4_spec);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  ASSERT_EQ(v4->phases.size(), 1u);
  const RunReport& r2 = v2->phases[0];
  const RunReport& r4 = v4->phases[0];

  // Same rollout outcome: every node installed, correctness clean, and the
  // text-domain strategy identity chain unchanged by the wire format.
  EXPECT_EQ(r4.install.nodes_installed, 8u);
  EXPECT_EQ(r4.correctness.correct_instances, r4.correctness.total_instances);
  EXPECT_FALSE(r4.correctness.btr_violated);
  EXPECT_EQ(r4.correctness.correct_instances, r2.correctness.correct_instances);
  EXPECT_EQ(r4.correctness.total_instances, r2.correctness.total_instances);
  EXPECT_EQ(r4.install.nodes_installed, r2.install.nodes_installed);

  // The format is a cost knob: the packed rollout moves fewer wire bytes.
  const uint64_t v2_bytes = r2.install.dissem.bytes_sent;
  const uint64_t v4_bytes = r4.install.dissem.bytes_sent;
  EXPECT_LT(v4_bytes, v2_bytes);
}

TEST(StrategyBinaryE2E, V4ReportsAreByteIdenticalAcrossShardCounts) {
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto spec = ParseExperimentSpec(RolloutSpecText(" wire=v4"));
    ASSERT_TRUE(spec.ok());
    spec->shards = shards;
    auto report = RunExperiment(*spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string dump = SerializeExperimentReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "v4 report diverged at shards=" << shards;
    }
  }
}

TEST(StrategyBinaryE2E, RunReportsMatchAcrossStrategySources) {
  // The same scenario run three ways — strategy planned in-process, loaded
  // from the v2 text blob, loaded from the v4 image — must produce
  // byte-identical run reports (provenance records the source; the
  // simulation must not care).
  auto make_system = [] {
    Rng rng(42);
    RandomDagParams params;
    params.compute_nodes = 4;
    params.layers = 2;
    params.tasks_per_layer = 3;
    Scenario s = MakeRandomScenario(&rng, params);
    BtrConfig config;
    config.planner.max_faults = 1;
    config.planner.recovery_bound = Milliseconds(500);
    config.seed = 42;
    return BtrSystem(std::move(s), config);
  };

  BtrSystem planned = make_system();
  ASSERT_TRUE(planned.Plan().ok());
  const std::string v2_blob = SaveStrategy(
      planned.strategy(), planned.planner().graph(), planned.scenario().topology);
  auto v4_image = SaveStrategyV4(planned.strategy(), planned.planner().graph(),
                                 planned.scenario().topology);
  ASSERT_TRUE(v4_image.ok());
  auto planned_report = planned.Run(100);
  ASSERT_TRUE(planned_report.ok());
  const std::string baseline = SerializeRunReport(*planned_report);

  for (const std::string& serialized : {v2_blob, *v4_image}) {
    BtrSystem system = make_system();
    auto loaded = LoadStrategy(serialized, system.planner().graph(),
                               system.scenario().topology);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(
        system.AdoptStrategy(std::make_shared<const Strategy>(std::move(*loaded))).ok());
    auto report = system.Run(100);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(SerializeRunReport(*report), baseline)
        << "report diverged for source_format "
        << system.strategy().provenance().source_format;
  }
}

}  // namespace
}  // namespace btr
