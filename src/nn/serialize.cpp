#include "src/nn/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace pipemare::nn {

namespace {

constexpr char kMagicV0[4] = {'P', 'M', 'W', 'T'};
constexpr char kMagicV1[4] = {'P', 'M', 'W', 'V'};

template <class T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <class T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return static_cast<bool>(in);
}

/// Reads `count` floats without ever allocating more than the stream
/// holds, so a hostile header count fails as truncation instead of as
/// std::length_error / std::bad_alloc: a seekable stream is checked up
/// front, any other (a pipe) is read in bounded chunks.
std::vector<float> read_payload(std::istream& in, std::uint64_t count,
                                const std::string& what) {
  const auto truncated = [&] {
    return std::runtime_error("read_weights: truncated payload in " + what);
  };
  std::vector<float> weights;
  if (const std::streampos here = in.tellg(); here != std::streampos(-1)) {
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    if (!in || end < here ||
        count > static_cast<std::uint64_t>(end - here) / sizeof(float)) {
      throw truncated();
    }
    weights.reserve(count);
  }
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;  // floats
  while (weights.size() < count) {
    const std::size_t done = weights.size();
    weights.resize(done + std::min<std::uint64_t>(kChunk, count - done));
    in.read(reinterpret_cast<char*>(weights.data() + done),
            static_cast<std::streamsize>((weights.size() - done) * sizeof(float)));
    if (!in) throw truncated();
  }
  return weights;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void write_weights(std::ostream& out, std::span<const float> weights) {
  out.write(kMagicV1, sizeof(kMagicV1));
  write_pod(out, kWeightsFormatVersion);
  const std::uint64_t count = weights.size();
  write_pod(out, count);
  const std::uint64_t checksum =
      fnv1a(weights.data(), weights.size() * sizeof(float));
  write_pod(out, checksum);
  out.write(reinterpret_cast<const char*>(weights.data()),
            static_cast<std::streamsize>(weights.size() * sizeof(float)));
}

std::vector<float> read_weights(std::istream& in, const std::string& what) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in) throw std::runtime_error("read_weights: truncated magic in " + what);
  if (std::memcmp(magic, kMagicV0, sizeof(magic)) == 0) {
    // Headerless v0: count + payload, no integrity check (legacy files).
    std::uint64_t count = 0;
    if (!read_pod(in, count)) {
      throw std::runtime_error("read_weights: truncated v0 header in " + what);
    }
    return read_payload(in, count, what);
  }
  if (std::memcmp(magic, kMagicV1, sizeof(magic)) != 0) {
    throw std::runtime_error("read_weights: bad magic in " + what);
  }
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
  if (!read_pod(in, version) || !read_pod(in, count) || !read_pod(in, checksum)) {
    throw std::runtime_error("read_weights: truncated header in " + what);
  }
  if (version == 0 || version > kWeightsFormatVersion) {
    throw std::runtime_error("read_weights: unsupported format version " +
                             std::to_string(version) + " in " + what);
  }
  auto weights = read_payload(in, count, what);
  const std::uint64_t actual = fnv1a(weights.data(), weights.size() * sizeof(float));
  if (actual != checksum) {
    throw std::runtime_error("read_weights: checksum mismatch in " + what +
                             " (file is corrupt)");
  }
  return weights;
}

void save_weights(const std::string& path, std::span<const float> weights) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_weights: cannot open " + path);
  write_weights(out, weights);
  if (!out) throw std::runtime_error("save_weights: write failed for " + path);
}

std::vector<float> load_weights(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_weights: cannot open " + path);
  return read_weights(in, path);
}

}  // namespace pipemare::nn
