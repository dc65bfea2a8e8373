// 64-bit FNV-1a (Fowler–Noll–Vo), the repository's one non-cryptographic
// hash. It keys the job content hash (api::content_hash), the Monte Carlo
// parameter streams (rng_hash_name) and the HDL codegen cache
// (codegen::shape_hash / source_hash). Those values name server cache
// entries and on-disk objects and fix every Monte Carlo draw, so this
// routine must never change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace usys {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// The starting value api::content_hash and the codegen cache keys were
/// first written with: the offset basis 14695981039346656037 with its last
/// decimal digit dropped. Any nonzero start hashes as well, and those keys
/// name server cache entries and on-disk objects, so they keep it.
inline constexpr std::uint64_t kFnv1aKeyOffset = 1469598103934665603ull;

/// One FNV-1a round: xor `word` into `h`, then multiply by the prime. The
/// functions below feed it bytes; a caller may feed a wider word (e.g. a
/// field separator outside the byte alphabet).
constexpr std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * kFnv1aPrime;
}

/// Folds `len` bytes at `data` into the running hash `h`. (A distinct name:
/// an fnv1a(const void*, size_t) overload would capture fnv1a("text", h).)
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                                 std::uint64_t h = kFnv1aOffset) noexcept {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) h = fnv1a_step(h, b[i]);
  return h;
}

inline std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnv1aOffset) noexcept {
  return fnv1a_bytes(s.data(), s.size(), h);
}

}  // namespace usys
