// Double-precision reference forward pass, built from a model's exported
// JSON document (the format nn::model_to_json writes).  It shares no code
// with the program's nn/ or tensor/ layers, so a wrong kernel, a wrong
// weight round trip or a wrong JSON float shows as a disagreement.
#pragma once

#include <cstddef>
#include <vector>

#include "common/json.h"

namespace e2ebench {

class ReferenceNet {
 public:
  /// Accepts dense, conv2d, depthwise_conv2d, relu, maxpool2d,
  /// global_avgpool, flatten and dropout layers; throws on anything else.
  explicit ReferenceNet(const openei::common::Json& model_doc);

  /// Logits of one row (input_elements() floats, CHW order for images).
  std::vector<double> logits(const float* row) const;

  std::size_t input_elements() const { return input_elements_; }
  std::size_t classes() const { return classes_; }
  /// 2 x multiply-adds of one row, from the layer shapes.
  double flops_per_row() const { return flops_per_row_; }
  /// fp32 bytes one row moves: every layer's input and output activations
  /// plus every weight and bias read once.
  double bytes_moved_per_row() const { return bytes_per_row_; }

 private:
  enum class Kind { kDense, kConv, kDepthwise, kRelu, kMaxPool, kGlobalAvg, kNoop };
  struct Layer {
    Kind kind = Kind::kNoop;
    std::size_t in_c = 0, in_h = 1, in_w = 1;  // input geometry
    std::size_t out_c = 0, out_h = 1, out_w = 1;
    std::size_t kernel = 1, stride = 1, pad = 0, window = 1;
    std::vector<double> weights, bias;
  };

  std::vector<Layer> layers_;
  std::size_t input_elements_ = 0;
  std::size_t classes_ = 0;
  double flops_per_row_ = 0.0;
  double bytes_per_row_ = 0.0;
};

/// Bit mask of the classes whose reference logit lies within `tolerance`
/// of the largest (a served prediction outside it is wrong).
std::uint64_t acceptable_classes(const std::vector<double>& logits,
                                 double tolerance);

/// Index of the largest logit (first on ties).
std::size_t argmax(const std::vector<double>& logits);

}  // namespace e2ebench
