// Per-thread block-DSP arena.
//
// The block kernels of the measure path (threshold rasterization, uniform-bit
// generation, noise synthesis, Goertzel filtering, detector-output marking)
// all operate on contiguous per-window buffers. One DspScratch per worker
// thread owns every such buffer: grown once to the service's window size and
// reused for every chirp of every pair, so the steady-state hot loop touches
// no allocator (the same fixed-RAM discipline RangingScratch models for the
// mote firmware, Section 3.6.2).
//
// Ownership contract: a DspScratch is exclusively owned by one thread (it
// lives inside RangingScratch, which already has that contract). Kernels
// receive raw pointers into it and never resize; only resize() grows the
// buffers, and it is called once per measure before any kernel runs.
#pragma once

#include <cstdint>
#include <vector>

namespace resloc::acoustics {

struct DspScratch {
  /// Per-sample 53-bit Bernoulli thresholds (hardware-detector block path).
  std::vector<std::uint64_t> fire_threshold;
  /// Per-sample 53-bit uniform draws matched against fire_threshold.
  std::vector<std::uint64_t> uniform_bits;
  /// Per-sample standard normals (software/NCC synthesis noise).
  std::vector<double> noise;
  /// Per-sample Goertzel detection metric.
  std::vector<double> metric;
  /// Per-sample binary detector output, 0 or 1.
  std::vector<std::uint8_t> fired;

  /// Grows every buffer to at least `num_samples`; never shrinks, so a
  /// campaign's steady state performs no allocation here.
  void resize(std::size_t num_samples) {
    if (fire_threshold.size() < num_samples) {
      fire_threshold.resize(num_samples);
      uniform_bits.resize(num_samples);
      noise.resize(num_samples);
      metric.resize(num_samples);
      fired.resize(num_samples);
    }
  }
};

}  // namespace resloc::acoustics
