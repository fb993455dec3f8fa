// Per-thread block-DSP arena.
//
// The sampled-audio block kernels of the measure path (noise synthesis,
// Goertzel filtering, detector-output marking) all operate on contiguous
// per-window buffers. One DspScratch per worker thread owns every such
// buffer: grown once to the service's window size and reused for every chirp
// of every pair, so the steady-state hot loop touches no allocator (the same
// fixed-RAM discipline RangingScratch models for the mote firmware, Section
// 3.6.2). The hardware-detector path uses none of them: its thresholds are a
// few runs in DetectorScratch, and its draws live in the SignalAccumulator.
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
  /// Per-sample standard normals (software/NCC synthesis noise).
  std::vector<double> noise;
  /// Per-sample Goertzel detection metric.
  std::vector<double> metric;
  /// Per-sample binary detector output, 0 or 1.
  std::vector<std::uint8_t> fired;

  /// Grows every buffer to at least `num_samples`; never shrinks, so a
  /// campaign's steady state performs no allocation here.
  void resize(std::size_t num_samples) {
    if (noise.size() < num_samples) {
      noise.resize(num_samples);
      metric.resize(num_samples);
      fired.resize(num_samples);
    }
  }
};

}  // namespace resloc::acoustics
