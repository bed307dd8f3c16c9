#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace pipemare::nn {

/// Binary checkpoint formats for flat parameter vectors.
///
/// v1 (what save_weights writes): a real header —
///   magic "PMWV" | uint32 format version | uint64 element count |
///   uint64 FNV-1a checksum of the payload bytes | raw little-endian
///   float32 payload
/// so a reader can reject truncated or bit-rotted files instead of
/// silently loading garbage weights.
///
/// v0 (the original headerless format: magic "PMWT" + uint64 count +
/// payload) is still read transparently — load_weights sniffs the magic —
/// so checkpoints written before the header existed keep loading.
inline constexpr std::uint32_t kWeightsFormatVersion = 1;

/// FNV-1a 64-bit over raw bytes (the checkpoint checksum / digest hash).
/// Chain calls by passing the previous result as `seed`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 14695981039346656037ULL);

/// Writes a v1 checkpoint; throws std::runtime_error on I/O failure.
void save_weights(const std::string& path, std::span<const float> weights);

/// Reads a v0 or v1 checkpoint; throws std::runtime_error on I/O failure
/// or a malformed file (bad magic, unsupported version, truncation,
/// checksum mismatch). Never allocates more than the file holds, whatever
/// element count its header claims.
std::vector<float> load_weights(const std::string& path);

/// Stream-level halves of save_weights / load_weights, for containers
/// that embed a weights blob inside a larger file (serve::ModelCheckpoint
/// wraps one in its own header). write_weights emits the v1 blob;
/// read_weights accepts v0 or v1. `what` names the enclosing file in
/// error messages.
void write_weights(std::ostream& out, std::span<const float> weights);
std::vector<float> read_weights(std::istream& in, const std::string& what);

}  // namespace pipemare::nn
