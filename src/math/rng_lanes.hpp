// Lane kernels behind math::Rng::fill_high_words_block, one per instruction
// set. Rng dispatches between them at run time (math/simd_dispatch.hpp); the
// declarations are here so tests can diff every variant the CPU supports
// against the portable one directly. Not part of the library's interface.
#pragma once

#include <cstddef>
#include <cstdint>

#include "math/simd_dispatch.hpp"

namespace resloc::math::detail {

/// Lanes of every variant: one high word per lane per group, so a group is
/// 64 draws and each lane steps 128 raw states per group.
inline constexpr std::size_t kHighWordLanes = 64;

/// Writes the high words of the next `n` uniform_bits() draws of the PCG32
/// generator (state, inc) -- the first raw output of each draw,
/// pcg_output(s_2i) -- and returns the state 2n raw steps later, which is
/// where sequential draws would have left it. Lane r carries the even raw
/// states 2r + 128g, so the odd (low-word) outputs are never permuted; a
/// partial last group writes only its first n % 64 lanes.
std::uint64_t high_words_portable(std::uint64_t state, std::uint64_t inc, std::uint32_t* out,
                                  std::size_t n);

#if RESLOC_X86_SIMD
/// The same, eight 8-lane AVX-512 vectors (needs cpu_has_avx512_kernels()).
std::uint64_t high_words_avx512(std::uint64_t state, std::uint64_t inc, std::uint32_t* out,
                                std::size_t n);

/// The same, sixteen 4-lane AVX2 vectors (needs cpu_has_avx2_kernels()).
std::uint64_t high_words_avx2(std::uint64_t state, std::uint64_t inc, std::uint32_t* out,
                              std::size_t n);
#endif

}  // namespace resloc::math::detail
