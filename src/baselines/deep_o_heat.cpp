#include "baselines/deep_o_heat.h"

#include <memory>

#include "common/logging.h"
#include "plan/trace.h"

namespace saufno {
namespace baselines {

DeepOHeat::DeepOHeat(const Config& cfg, Rng& rng) : cfg_(cfg) {
  const int64_t branch_in =
      cfg.in_channels * cfg.sensor_grid * cfg.sensor_grid;
  auto branch = std::make_shared<nn::Sequential>();
  branch->append(std::make_shared<nn::Linear>(branch_in, cfg.hidden, rng));
  branch->append(std::make_shared<nn::Tanh>());
  for (int64_t i = 1; i < cfg.depth; ++i) {
    branch->append(std::make_shared<nn::Linear>(cfg.hidden, cfg.hidden, rng));
    branch->append(std::make_shared<nn::Tanh>());
  }
  branch->append(std::make_shared<nn::Linear>(
      cfg.hidden, cfg.out_channels * cfg.p, rng));
  branch_ = register_module("branch", branch);

  auto trunk = std::make_shared<nn::Sequential>();
  trunk->append(std::make_shared<nn::Linear>(2, cfg.hidden, rng));
  trunk->append(std::make_shared<nn::Tanh>());
  for (int64_t i = 1; i < cfg.depth; ++i) {
    trunk->append(std::make_shared<nn::Linear>(cfg.hidden, cfg.hidden, rng));
    trunk->append(std::make_shared<nn::Tanh>());
  }
  trunk->append(std::make_shared<nn::Linear>(cfg.hidden, cfg.p, rng));
  trunk_ = register_module("trunk", trunk);

  out_bias_ = register_parameter(
      "out_bias", Var(Tensor::zeros({cfg.out_channels}), true));
}

Tensor DeepOHeat::make_coords(int64_t h, int64_t w) const {
  Tensor coords({h * w, 2});
  float* p = coords.data();
  for (int64_t i = 0; i < h; ++i) {
    const float y = h > 1 ? static_cast<float>(i) / (h - 1) : 0.f;
    for (int64_t j = 0; j < w; ++j) {
      const float x = w > 1 ? static_cast<float>(j) / (w - 1) : 0.f;
      p[(i * w + j) * 2 + 0] = y;
      p[(i * w + j) * 2 + 1] = x;
    }
  }
  return coords;
}

Var DeepOHeat::forward(const Var& x) {
  SAUFNO_CHECK(x.value().dim() == 4, "DeepOHeat input must be [B,C,H,W]");
  const int64_t B = x.size(0), H = x.size(2), W = x.size(3);

  // Branch: resample the input field to the fixed sensor grid. The resize
  // is differentiable, so gradients still reach the raw input if needed.
  Var sensors = ops::resize_bilinear(x, cfg_.sensor_grid, cfg_.sensor_grid);
  sensors = ops::reshape(
      sensors, {B, cfg_.in_channels * cfg_.sensor_grid * cfg_.sensor_grid});
  Var b_feat = branch_->forward(sensors);  // [B, out_ch * p]
  b_feat = ops::reshape(b_feat, {B * cfg_.out_channels, cfg_.p});

  // Trunk: per-pixel coordinate features, shared across the batch.
  Var coords = plan::tr::constant(make_coords(H, W));  // [N, 2]
  Var t_feat = trunk_->forward(coords);   // [N, p]

  // Inner product: [B*out_ch, p] x [p, N] -> [B*out_ch, N].
  Var y = ops::matmul(b_feat, ops::permute(t_feat, {1, 0}));
  y = ops::reshape(y, {B, cfg_.out_channels, H, W});
  // Per-channel output bias, broadcast over space.
  Var bias = ops::reshape(out_bias_, {1, cfg_.out_channels, 1, 1});
  return ops::add(y, bias);
}

}  // namespace baselines
}  // namespace saufno
