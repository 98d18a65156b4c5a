#pragma once

#include "ivf/ivf_flat.hpp"
#include "kernels/sq8.hpp"

namespace wknng::ivf {

/// IVF with 8-bit scalar-quantized storage (FAISS's IndexIVFScalarQuantizer
/// with QT_8bit): the inverted lists hold uint8 codes (4x less memory than
/// flat), scanned with asymmetric float-vs-dequantized distances, with an
/// optional exact rescoring pass over the best `rescore` candidates to
/// recover the precision the quantizer loses near ties.
class IvfSq8Index {
 public:
  /// Trains the coarse quantizer and the SQ8 codebook, encodes every point.
  static IvfSq8Index build(ThreadPool& pool, const FloatMatrix& points,
                           const IvfParams& params, IvfCost* cost = nullptr);

  std::size_t nlist() const { return flat_.nlist(); }
  const kernels::Sq8Matrix& quantized() const { return quantized_; }

  /// Memory held by the vector payload (codes), for the memory column of
  /// the quantization experiment.
  std::size_t code_bytes() const {
    return quantized_.rows() * quantized_.dim();
  }

  /// k-NN of each query over the nprobe closest lists, scanning codes.
  /// `rescore` > k re-ranks that many quantized candidates with exact float
  /// distances against `points` (pass the original matrix); rescore == 0
  /// returns quantized distances directly.
  KnnGraph search(ThreadPool& pool, const FloatMatrix& points,
                  const FloatMatrix& queries, std::size_t k,
                  std::size_t nprobe, std::size_t rescore = 0,
                  std::span<const std::uint32_t> exclude_self = {},
                  IvfCost* cost = nullptr) const;

  /// All-points K-NN graph (every base point queries, excluding itself).
  KnnGraph build_knng(ThreadPool& pool, const FloatMatrix& points,
                      std::size_t k, std::size_t nprobe,
                      std::size_t rescore = 0, IvfCost* cost = nullptr) const;

 private:
  IvfFlatIndex flat_;     ///< coarse quantizer + inverted lists (reused)
  kernels::Sq8Matrix quantized_;
};

}  // namespace wknng::ivf
