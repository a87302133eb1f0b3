// v4 binary strategy format: delta-encoded, dictionary-packed, sealed
// images of the canonical strategy texts.
//
// The v2/v3 text formats dedup whole plan bodies but still write every
// table and budget record verbatim per body, so slices and patches inherit
// verbatim rows. The v4 image packs them:
//
//   delta encoding — sibling bodies in the wave DAG differ from their
//     level-(k-1) prefix parent in a handful of rows (that is what makes
//     incremental replanning cheap), so each body is encoded against the
//     body referenced by its first mode's prefix fault set: only changed
//     placement / table / budget entries are stored, the rest is implied
//     by the parent reference. Bodies that do not delta well fall back to
//     raw encoding per section; the choice is size-driven.
//   dictionaries — utility strings and schedule-table row groups repeat
//     across bodies; each is stored once (STRDICT / TABDICT) and bodies
//     carry varint references.
//   sealed layout — the image is sectioned with relative offsets and
//     fixed alignment (see binary_image.h), sealed by a trailing
//     fingerprint over every byte, so the same bytes are valid on disk and
//     on the wire. An image is an encoding only: a node decodes it once, on
//     install, to the canonical text it keeps.
//
// The oracle contract mirrors the text install plane: DecodeStrategyImage
// (EncodeStrategyImage(text)) returns `text` byte-for-byte (the encoder
// self-checks this before returning), and a decoded patch re-serializes to
// the exact BTRPATCH text it was encoded from. Equality stays provable by
// string comparison all the way down.

#ifndef BTR_SRC_FMT_STRATEGY_BINARY_H_
#define BTR_SRC_FMT_STRATEGY_BINARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/binary_image.h"

namespace btr {
namespace fmt {

// True if `data` carries the v4 image magic. Callers use this to
// auto-detect format; a positive sniff still requires validation.
inline bool IsV4Image(std::string_view data) { return LooksLikeImage(data); }

// Encodes a canonical BTRSTRATEGY v3 blob or BTRSLICE v1 slice text into a
// v4 image (kind chosen from the text). Fails on non-canonical input. The
// returned image decodes back to `text` byte-for-byte (self-checked).
StatusOr<std::string> EncodeStrategyImage(const std::string& text);

// Decodes a v4 blob/slice image back to its canonical text. Rejects
// structural corruption, out-of-range references, and any image whose
// decoded text does not hash to the trailer's text fingerprint.
StatusOr<std::string> DecodeStrategyImage(const std::string& image);

// Encodes a parsed patch into a v4 patch image. BNEW bodies delta against
// earlier BNEW bodies in the same patch (resolved through the MSET prefix
// fault sets), so the image is self-contained: a gossip relay holding only
// its own slice can still decode it. Self-checked like the blob encoder.
StatusOr<std::string> EncodePatchImage(const StrategyPatch& patch);

// A rollout's shipped artifacts (see StrategyUpdate): the target blob, the
// unsliced patch, and per node its full slice and its patch slice.
struct RolloutArtifacts {
  std::string blob;
  std::string patch;
  std::vector<std::string> slices;
  std::vector<std::string> patch_slices;
};

// Encodes the canonical texts of one rollout to v4 images, parsing the
// target's bodies once and the patch's once instead of once per image.
// `texts` must hold the target blob, SaveStrategyPatch(patch), and for
// every node n ExtractSlice(blob, n) and SaveStrategyPatchSlice(patch, n).
// Each image equals the one EncodeStrategyImage / EncodePatchImage gives
// for its text alone, and is self-checked against that text the same way.
StatusOr<RolloutArtifacts> EncodeRolloutImages(const StrategyPatch& patch,
                                               const RolloutArtifacts& texts);

// Decodes a v4 patch image. The result is re-serialized and re-parsed
// through the strict BTRPATCH text path, so a decoded patch carries exactly
// the guarantees of a text-parsed one.
StatusOr<StrategyPatch> DecodePatchImage(const std::string& image);

// Structural + grammatical validation without materializing any text: walks
// the header, section table, dictionaries, every body payload (including
// delta chains), modes, and the fingerprint seal.
Status ValidateStrategyImage(const std::string& image);

// Header accessor over a sealed blob/slice image. Map() walks the header,
// section table, dictionaries, mode table, and seal without decoding any
// body payload (run ValidateStrategyImage or DecodeStrategyImage for
// that); header fields are then O(1) reads. Copyable; copies share the
// mapped image.
class BinaryStrategyView {
 public:
  // Takes ownership of the image bytes. Rejects patch images (use
  // DecodePatchImage).
  static StatusOr<BinaryStrategyView> Map(std::string image);

  bool is_slice() const;
  uint64_t node() const;       // slices only
  uint64_t slice_sfp() const;  // slices only: fingerprint of the source blob
  uint64_t body_count() const;
  uint64_t mode_count() const;
  // Fingerprint of the canonical text this image encodes (the trailer's
  // text_fp) — equals FingerprintStrategyText(DecodeStrategyImage(image)).
  uint64_t text_fingerprint() const;

 private:
  struct State;
  explicit BinaryStrategyView(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

}  // namespace fmt
}  // namespace btr

#endif  // BTR_SRC_FMT_STRATEGY_BINARY_H_
