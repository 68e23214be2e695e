#include "nn/linear.h"

#include "common/logging.h"

namespace saufno {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  weight_ = register_parameter(
      "weight",
      Var(xavier_uniform({in_, out_}, in_, out_, rng), /*requires_grad=*/true));
  if (bias) {
    bias_ = register_parameter(
        "bias", Var(Tensor::zeros({out_}), /*requires_grad=*/true));
  }
}

Var Linear::forward(const Var& x) {
  const Shape in_shape = x.shape();
  SAUFNO_CHECK(!in_shape.empty() && in_shape.back() == in_,
               "Linear expects last dim " + std::to_string(in_) + ", got " +
                   shape_str(in_shape));
  Var flat = ops::reshape(x, {-1, in_});
  Var y = ops::matmul(flat, weight_);
  if (bias_.defined()) y = ops::add(y, bias_);
  Shape out_shape = in_shape;
  out_shape.back() = out_;
  return ops::reshape(y, std::move(out_shape));
}

PointwiseConv::PointwiseConv(int64_t cin, int64_t cout, Rng& rng, bool bias)
    : cin_(cin), cout_(cout) {
  weight_ = register_parameter(
      "weight",
      Var(xavier_uniform({cin_, cout_}, cin_, cout_, rng),
          /*requires_grad=*/true));
  if (bias) {
    bias_ = register_parameter(
        "bias", Var(Tensor::zeros({cout_}), /*requires_grad=*/true));
  }
}

Var PointwiseConv::forward(const Var& x) {
  SAUFNO_CHECK(x.value().dim() == 4, "PointwiseConv input must be [B,C,H,W]");
  SAUFNO_CHECK(x.size(1) == cin_, "PointwiseConv expects " +
                                      std::to_string(cin_) + " channels, got " +
                                      std::to_string(x.size(1)));
  const int64_t B = x.size(0), H = x.size(2), W = x.size(3);
  // A batch-broadcast bmm on the NCHW layout, W^T[1, Cout, Cin] x
  // X[B, Cin, H*W], so the activations never change layout. A compiled
  // plan constant-folds W^T and the bias reshape; the checkpoint keeps W as
  // [Cin, Cout].
  Var wt = ops::reshape(ops::permute(weight_, {1, 0}), {1, cout_, cin_});
  Var t = ops::bmm(wt, ops::reshape(x, {B, cin_, H * W}));  // [B, Cout, HW]
  if (bias_.defined()) t = ops::add(t, ops::reshape(bias_, {cout_, 1}));
  return ops::reshape(t, {B, cout_, H, W});
}

}  // namespace nn
}  // namespace saufno
