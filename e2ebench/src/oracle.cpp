#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace e2ebench {

using openei::common::Json;

namespace {

std::size_t as_size(const Json& value) {
  return static_cast<std::size_t>(value.as_int());
}

std::vector<double> values_of(const Json& tensor_doc) {
  std::vector<double> out;
  for (const Json& v : tensor_doc.at("values").as_array()) {
    out.push_back(v.as_number());
  }
  return out;
}

}  // namespace

ReferenceNet::ReferenceNet(const Json& model_doc) {
  const auto& dims = model_doc.at("input_shape").as_array();
  std::size_t c = 1, h = 1, w = 1;
  if (dims.size() == 1) {
    c = as_size(dims[0]);
  } else if (dims.size() == 3) {
    c = as_size(dims[0]);
    h = as_size(dims[1]);
    w = as_size(dims[2]);
  } else {
    throw std::runtime_error("reference net: unsupported input rank");
  }
  input_elements_ = c * h * w;

  for (const Json& doc : model_doc.at("layers").as_array()) {
    const std::string& type = doc.at("type").as_string();
    const Json& cfg = doc.at("config");
    Layer layer;
    layer.in_c = c;
    layer.in_h = h;
    layer.in_w = w;
    double macs = 0.0;
    if (type == "dense") {
      layer.kind = Kind::kDense;
      std::size_t in = as_size(cfg.at("in"));
      if (in != c * h * w) throw std::runtime_error("reference net: dense fan-in");
      layer.out_c = as_size(cfg.at("out"));
      layer.weights = values_of(doc.at("weights"));  // [in, out]
      layer.bias = values_of(doc.at("bias"));
      macs = static_cast<double>(in * layer.out_c);
    } else if (type == "conv2d" || type == "depthwise_conv2d") {
      bool depthwise = type == "depthwise_conv2d";
      layer.kind = depthwise ? Kind::kDepthwise : Kind::kConv;
      layer.out_c = depthwise ? c : as_size(cfg.at("out_channels"));
      layer.kernel = as_size(cfg.at("kernel"));
      layer.stride = as_size(cfg.at("stride"));
      layer.pad = as_size(cfg.at("padding"));
      layer.out_h = (h + 2 * layer.pad - layer.kernel) / layer.stride + 1;
      layer.out_w = (w + 2 * layer.pad - layer.kernel) / layer.stride + 1;
      layer.weights = values_of(doc.at("weights"));  // [out, in or 1, k, k]
      layer.bias = values_of(doc.at("bias"));
      std::size_t per_output = (depthwise ? 1 : c) * layer.kernel * layer.kernel;
      macs = static_cast<double>(layer.out_c * layer.out_h * layer.out_w *
                                 per_output);
    } else if (type == "relu") {
      layer.kind = Kind::kRelu;
    } else if (type == "maxpool2d") {
      layer.kind = Kind::kMaxPool;
      layer.window = as_size(cfg.at("window"));
      layer.out_h = h / layer.window;
      layer.out_w = w / layer.window;
    } else if (type == "global_avgpool") {
      layer.kind = Kind::kGlobalAvg;
      layer.out_c = c;
    } else if (type == "flatten" || type == "dropout") {
      layer.kind = Kind::kNoop;
    } else {
      throw std::runtime_error("reference net: unsupported layer '" + type + "'");
    }
    if (layer.kind == Kind::kRelu || layer.kind == Kind::kNoop) {
      layer.out_c = c;
      layer.out_h = h;
      layer.out_w = w;
    } else if (layer.kind == Kind::kMaxPool) {
      layer.out_c = c;
    }
    c = layer.out_c;
    h = layer.out_h;
    w = layer.out_w;
    flops_per_row_ += 2.0 * macs;
    bytes_per_row_ +=
        4.0 * static_cast<double>(layer.in_c * layer.in_h * layer.in_w +
                                  c * h * w + layer.weights.size() +
                                  layer.bias.size());
    layers_.push_back(std::move(layer));
  }
  classes_ = c * h * w;
}

std::vector<double> ReferenceNet::logits(const float* row) const {
  std::vector<double> x(row, row + input_elements_);
  std::vector<double> y;
  for (const Layer& l : layers_) {
    switch (l.kind) {
      case Kind::kDense: {
        std::size_t in = x.size();
        y.assign(l.bias.begin(), l.bias.end());
        for (std::size_t i = 0; i < in; ++i) {
          for (std::size_t o = 0; o < l.out_c; ++o) {
            y[o] += x[i] * l.weights[i * l.out_c + o];
          }
        }
        break;
      }
      case Kind::kConv:
      case Kind::kDepthwise: {
        bool depthwise = l.kind == Kind::kDepthwise;
        std::size_t k = l.kernel;
        y.assign(l.out_c * l.out_h * l.out_w, 0.0);
        for (std::size_t oc = 0; oc < l.out_c; ++oc) {
          std::size_t ic_begin = depthwise ? oc : 0;
          std::size_t ic_end = depthwise ? oc + 1 : l.in_c;
          for (std::size_t oh = 0; oh < l.out_h; ++oh) {
            for (std::size_t ow = 0; ow < l.out_w; ++ow) {
              double acc = l.bias[oc];
              for (std::size_t ic = ic_begin; ic < ic_end; ++ic) {
                std::size_t wi = depthwise ? 0 : ic;
                for (std::size_t kh = 0; kh < k; ++kh) {
                  long ih = static_cast<long>(oh * l.stride + kh) -
                            static_cast<long>(l.pad);
                  if (ih < 0 || ih >= static_cast<long>(l.in_h)) continue;
                  for (std::size_t kw = 0; kw < k; ++kw) {
                    long iw = static_cast<long>(ow * l.stride + kw) -
                              static_cast<long>(l.pad);
                    if (iw < 0 || iw >= static_cast<long>(l.in_w)) continue;
                    std::size_t in_channels = depthwise ? 1 : l.in_c;
                    acc += x[(ic * l.in_h + static_cast<std::size_t>(ih)) *
                                 l.in_w +
                             static_cast<std::size_t>(iw)] *
                           l.weights[((oc * in_channels + wi) * k + kh) * k + kw];
                  }
                }
              }
              y[(oc * l.out_h + oh) * l.out_w + ow] = acc;
            }
          }
        }
        break;
      }
      case Kind::kRelu:
        y = x;
        for (double& v : y) v = std::max(v, 0.0);
        break;
      case Kind::kMaxPool: {
        y.assign(l.out_c * l.out_h * l.out_w, 0.0);
        for (std::size_t ch = 0; ch < l.out_c; ++ch) {
          for (std::size_t oh = 0; oh < l.out_h; ++oh) {
            for (std::size_t ow = 0; ow < l.out_w; ++ow) {
              double best = -INFINITY;
              for (std::size_t a = 0; a < l.window; ++a) {
                for (std::size_t b = 0; b < l.window; ++b) {
                  best = std::max(best, x[(ch * l.in_h + oh * l.window + a) *
                                              l.in_w +
                                          ow * l.window + b]);
                }
              }
              y[(ch * l.out_h + oh) * l.out_w + ow] = best;
            }
          }
        }
        break;
      }
      case Kind::kGlobalAvg: {
        std::size_t plane = l.in_h * l.in_w;
        y.assign(l.out_c, 0.0);
        for (std::size_t ch = 0; ch < l.out_c; ++ch) {
          for (std::size_t i = 0; i < plane; ++i) y[ch] += x[ch * plane + i];
          y[ch] /= static_cast<double>(plane);
        }
        break;
      }
      case Kind::kNoop:
        y = x;
        break;
    }
    x.swap(y);
  }
  return x;
}

std::uint64_t acceptable_classes(const std::vector<double>& logits,
                                 double tolerance) {
  double best = *std::max_element(logits.begin(), logits.end());
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < logits.size() && i < 64; ++i) {
    if (logits[i] >= best - tolerance) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

std::size_t argmax(const std::vector<double>& logits) {
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

}  // namespace e2ebench
