#include "fft/fft.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "common/logging.h"
#include "fft/plan.h"
#include "obs/kernel_profile.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"

namespace saufno {
namespace {

using fft::FftPlan;
using fft::RfftPlan;
using fft::get_plan;
using fft::get_rfft_plan;
using fft::run_plan;

/// Column tile width for the cache-blocked column pass: a [len x kColTile]
/// block is gathered into contiguous scratch (transposed), transformed line
/// by line, and scattered back, so the strided plane is touched in
/// row-contiguous segments instead of one element per cache line.
constexpr int64_t kColTile = 16;

/// Transform columns [c0, c1) of a [len x stride] strided layout in place:
/// element (l, j) lives at base[l * stride + j]. `tile` must hold
/// kColTile * len cfloats.
void fft_cols(cfloat* base, int64_t len, int64_t stride, int64_t c0,
              int64_t c1, const FftPlan& plan, bool inverse, cfloat* tile) {
  if (len == 1) return;
  for (int64_t j0 = c0; j0 < c1; j0 += kColTile) {
    const int64_t tw = std::min(kColTile, c1 - j0);
    for (int64_t l = 0; l < len; ++l) {
      const cfloat* row = base + l * stride + j0;
      for (int64_t t = 0; t < tw; ++t) tile[t * len + l] = row[t];
    }
    for (int64_t t = 0; t < tw; ++t) run_plan(tile + t * len, plan, inverse);
    for (int64_t l = 0; l < len; ++l) {
      cfloat* row = base + l * stride + j0;
      for (int64_t t = 0; t < tw; ++t) row[t] = tile[t * len + l];
    }
  }
}

/// Forward real FFT of one length-n row into out[0..wk-1] (wk <= n/2+1).
/// Even lengths use the real-even packing trick (one n/2-point complex FFT
/// plus an O(wk) unpack); odd lengths widen and run the full plan.
/// `scratch` must hold n cfloats.
void rfft_row(const float* in, cfloat* out, const RfftPlan& rp, int64_t wk,
              cfloat* scratch) {
  const int64_t n = rp.n;
  if (n == 1) {
    out[0] = cfloat(in[0], 0.f);
    return;
  }
  if (rp.even) {
    const int64_t n2 = n / 2;
    cfloat* z = scratch;
    for (int64_t j = 0; j < n2; ++j) z[j] = cfloat(in[2 * j], in[2 * j + 1]);
    run_plan(z, *rp.sub, false);
    for (int64_t k = 0; k < wk; ++k) {
      const cfloat zk = z[k == n2 ? 0 : k];
      const cfloat zm = std::conj(z[k == 0 ? 0 : n2 - k]);
      const cfloat e = 0.5f * (zk + zm);
      const cfloat d = zk - zm;
      const cfloat o(0.5f * d.imag(), -0.5f * d.real());  // -i/2 * d
      out[k] = e + rp.unpack[static_cast<std::size_t>(k)] * o;
    }
    return;
  }
  for (int64_t j = 0; j < n; ++j) scratch[j] = cfloat(in[j], 0.f);
  run_plan(scratch, *rp.sub, false);
  for (int64_t k = 0; k < wk; ++k) out[k] = scratch[k];
}

/// Inverse of rfft_row: writes scale * the length-n real signal whose
/// half-spectrum is spec[0..wk-1] extended with zeros up to n/2 and by
/// conjugate symmetry beyond. `scratch` must hold n cfloats.
void irfft_row(const cfloat* spec, float* out, const RfftPlan& rp, int64_t wk,
               float scale, cfloat* scratch) {
  const int64_t n = rp.n;
  if (n == 1) {
    out[0] = scale * spec[0].real();
    return;
  }
  auto at = [&](int64_t k) {
    return k < wk ? spec[k] : cfloat(0.f, 0.f);
  };
  if (rp.even) {
    const int64_t n2 = n / 2;
    cfloat* z = scratch;
    for (int64_t k = 0; k < n2; ++k) {
      const cfloat xk = at(k);
      const cfloat xm = std::conj(at(n2 - k));
      const cfloat e = 0.5f * (xk + xm);
      const cfloat d = 0.5f * (xk - xm);
      // O[k] = d * conj(unpack[k]); Z[k] = E[k] + i * O[k].
      const cfloat w = rp.unpack[static_cast<std::size_t>(k)];
      const cfloat o(d.real() * w.real() + d.imag() * w.imag(),
                     d.imag() * w.real() - d.real() * w.imag());
      z[k] = cfloat(e.real() - o.imag(), e.imag() + o.real());
    }
    run_plan(z, *rp.sub, true);
    for (int64_t j = 0; j < n2; ++j) {
      out[2 * j] = scale * z[j].real();
      out[2 * j + 1] = scale * z[j].imag();
    }
    return;
  }
  scratch[0] = at(0);
  for (int64_t k = 1; k <= (n - 1) / 2; ++k) {
    const cfloat v = at(k);
    scratch[k] = v;
    scratch[n - k] = std::conj(v);
  }
  run_plan(scratch, *rp.sub, true);
  for (int64_t j = 0; j < n; ++j) out[j] = scale * scratch[j].real();
}

int64_t plane_grain(int64_t work_per_plane) {
  return std::max<int64_t>(1, 2048 / std::max<int64_t>(1, work_per_plane));
}

}  // namespace

void fft_1d(cfloat* x, int64_t n, bool inverse) {
  SAUFNO_CHECK(n >= 1, "fft_1d length must be >= 1");
  if (n == 1) return;
  const auto plan = get_plan(n);
  run_plan(x, *plan, inverse);
}

void fft_2d(cfloat* x, int64_t batch, int64_t h, int64_t w, bool inverse) {
  static obs::Histogram& prof_hist = obs::histogram("kernel.fft_2d_us");
  obs::KernelTimer prof_timer(prof_hist, "fft.fft_2d");
  SAUFNO_FAULT_POINT("fft");
  // Two parallel seams: batch (outer) and rows/column-tiles within a plane
  // (nested: inline inside an outer chunk, spread over the pool when the
  // outer loop is a single chunk — see parallel_for.h). Every line/tile is
  // transformed independently and the nested grains depend only on the
  // shape, so results stay bit-identical for any thread count. With many
  // small planes the outer loop spreads and the inner loops run inline; a
  // lone big plane splits across its rows instead. Plans are fetched once, outside
  // the per-line loops, so the cache mutex is off the hot path.
  const auto pw = get_plan(w);
  const auto ph = get_plan(h);
  runtime::parallel_for(0, batch, plane_grain(h * w), [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      cfloat* plane = x + b * h * w;
      if (w > 1) {
        runtime::parallel_for(0, h, plane_grain(w), [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) run_plan(plane + i * w, *pw, inverse);
        });
      }
      if (h > 1) {
        // Grain == kColTile keeps chunk edges on tile edges, so the gather/
        // scatter tiling is the same as one sequential full-width call.
        runtime::parallel_for(0, w, kColTile, [&](int64_t c0, int64_t c1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * h));
          fft_cols(plane, h, w, c0, c1, *ph, inverse, tile.data());
        });
      }
    }
  });
}

void fft_3d(cfloat* x, int64_t batch, int64_t d, int64_t h, int64_t w,
            bool inverse) {
  static obs::Histogram& prof_hist = obs::histogram("kernel.fft_3d_us");
  obs::KernelTimer prof_timer(prof_hist, "fft.fft_3d");
  SAUFNO_FAULT_POINT("fft");
  // Planes first (h, w), then 1-D transforms along the depth axis. Each
  // volume's depth pass is independent, so volumes parallelize like planes.
  fft_2d(x, batch * d, h, w, inverse);
  if (d == 1) return;
  const auto pd = get_plan(d);
  const int64_t plane = h * w;
  runtime::parallel_for(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      cfloat* vol = x + b * d * plane;
      runtime::parallel_for(0, plane, kColTile, [&](int64_t c0, int64_t c1) {
        runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * d));
        fft_cols(vol, d, plane, c0, c1, *pd, inverse, tile.data());
      });
    }
  });
}

void rfft_2d(const float* x, cfloat* out, int64_t batch, int64_t h, int64_t w,
             int64_t wk) {
  static obs::Histogram& prof_hist = obs::histogram("kernel.rfft_2d_us");
  obs::KernelTimer prof_timer(prof_hist, "fft.rfft_2d");
  SAUFNO_FAULT_POINT("fft");
  SAUFNO_CHECK(wk >= 1 && wk <= rfft_cols(w),
               "rfft_2d: wk out of range for width " + std::to_string(w));
  const auto rp = get_rfft_plan(w);
  const auto ph = get_plan(h);
  runtime::parallel_for(0, batch, plane_grain(h * w), [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* in = x + b * h * w;
      cfloat* plane = out + b * h * wk;
      runtime::parallel_for(0, h, plane_grain(w), [&](int64_t i0, int64_t i1) {
        runtime::Scratch<cfloat> row(static_cast<std::size_t>(w));
        for (int64_t i = i0; i < i1; ++i) {
          rfft_row(in + i * w, plane + i * wk, *rp, wk, row.data());
        }
      });
      if (h > 1) {
        runtime::parallel_for(0, wk, kColTile, [&](int64_t c0, int64_t c1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * h));
          fft_cols(plane, h, wk, c0, c1, *ph, /*inverse=*/false, tile.data());
        });
      }
    }
  });
}

void irfft_2d(cfloat* spec, float* out, int64_t batch, int64_t h, int64_t w,
              int64_t wk, float scale) {
  static obs::Histogram& prof_hist = obs::histogram("kernel.irfft_2d_us");
  obs::KernelTimer prof_timer(prof_hist, "fft.irfft_2d");
  SAUFNO_FAULT_POINT("fft");
  SAUFNO_CHECK(wk >= 1 && wk <= rfft_cols(w),
               "irfft_2d: wk out of range for width " + std::to_string(w));
  const auto rp = get_rfft_plan(w);
  const auto ph = get_plan(h);
  runtime::parallel_for(0, batch, plane_grain(h * w), [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      cfloat* plane = spec + b * h * wk;
      float* dst = out + b * h * w;
      if (h > 1) {
        runtime::parallel_for(0, wk, kColTile, [&](int64_t c0, int64_t c1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * h));
          fft_cols(plane, h, wk, c0, c1, *ph, /*inverse=*/true, tile.data());
        });
      }
      runtime::parallel_for(0, h, plane_grain(w), [&](int64_t i0, int64_t i1) {
        runtime::Scratch<cfloat> row(static_cast<std::size_t>(w));
        for (int64_t i = i0; i < i1; ++i) {
          irfft_row(plane + i * wk, dst + i * w, *rp, wk, scale, row.data());
        }
      });
    }
  });
}

namespace {

/// The pruned kh row set is [0, mh) ∪ [h-mh, h) — or every row when the two
/// halves meet. Expressed as a count + index map so the rows can be walked
/// by a parallel_for (shape-only chunking over [0, kept_row_count)).
int64_t kept_row_count(int64_t h, int64_t mh) {
  return 2 * mh >= h ? h : 2 * mh;
}

int64_t kept_row(int64_t h, int64_t mh, int64_t i) {
  if (2 * mh >= h) return i;
  return i < mh ? i : h - 2 * mh + i;
}

}  // namespace

void rfft_3d(const float* x, cfloat* out, int64_t batch, int64_t d, int64_t h,
             int64_t w, int64_t wk, int64_t mh) {
  static obs::Histogram& prof_hist = obs::histogram("kernel.rfft_3d_us");
  obs::KernelTimer prof_timer(prof_hist, "fft.rfft_3d");
  SAUFNO_FAULT_POINT("fft");
  SAUFNO_CHECK(wk >= 1 && wk <= rfft_cols(w),
               "rfft_3d: wk out of range for width " + std::to_string(w));
  const auto rp = get_rfft_plan(w);
  const auto ph = get_plan(h);
  const auto pd = get_plan(d);
  const int64_t cvol = d * h * wk;  // compact volume
  // Outer seam: volumes. Nested seams (spread over the pool only when the
  // outer loop is a single chunk): the d*h real rows, then per-slice
  // h-column passes, then the pruned depth rows. All grains depend only on
  // the shape, so bit-identity holds at every thread count.
  runtime::parallel_for(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* in = x + b * d * h * w;
      cfloat* vol = out + b * cvol;
      runtime::parallel_for(0, d * h, plane_grain(w), [&](int64_t l0, int64_t l1) {
        runtime::Scratch<cfloat> row(static_cast<std::size_t>(w));
        for (int64_t l = l0; l < l1; ++l) {
          rfft_row(in + l * w, vol + l * wk, *rp, wk, row.data());
        }
      });
      if (h > 1) {
        runtime::parallel_for(0, d, 1, [&](int64_t d0, int64_t d1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * h));
          for (int64_t id = d0; id < d1; ++id) {
            fft_cols(vol + id * h * wk, h, wk, 0, wk, *ph, /*inverse=*/false,
                     tile.data());
          }
        });
      }
      if (d > 1) {
        const int64_t kept = kept_row_count(h, mh);
        runtime::parallel_for(0, kept, 1, [&](int64_t k0, int64_t k1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * d));
          for (int64_t i = k0; i < k1; ++i) {
            fft_cols(vol + kept_row(h, mh, i) * wk, d, h * wk, 0, wk, *pd,
                     /*inverse=*/false, tile.data());
          }
        });
      }
    }
  });
}

void irfft_3d(cfloat* spec, float* out, int64_t batch, int64_t d, int64_t h,
              int64_t w, int64_t wk, int64_t mh, float scale) {
  static obs::Histogram& prof_hist = obs::histogram("kernel.irfft_3d_us");
  obs::KernelTimer prof_timer(prof_hist, "fft.irfft_3d");
  SAUFNO_FAULT_POINT("fft");
  SAUFNO_CHECK(wk >= 1 && wk <= rfft_cols(w),
               "irfft_3d: wk out of range for width " + std::to_string(w));
  const auto rp = get_rfft_plan(w);
  const auto ph = get_plan(h);
  const auto pd = get_plan(d);
  const int64_t cvol = d * h * wk;
  // Mirror of rfft_3d: pruned depth rows, per-slice h-columns, then the
  // d*h real rows, each a nested shape-only-chunked parallel_for.
  runtime::parallel_for(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      cfloat* vol = spec + b * cvol;
      float* dst = out + b * d * h * w;
      if (d > 1) {
        const int64_t kept = kept_row_count(h, mh);
        runtime::parallel_for(0, kept, 1, [&](int64_t k0, int64_t k1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * d));
          for (int64_t i = k0; i < k1; ++i) {
            fft_cols(vol + kept_row(h, mh, i) * wk, d, h * wk, 0, wk, *pd,
                     /*inverse=*/true, tile.data());
          }
        });
      }
      if (h > 1) {
        runtime::parallel_for(0, d, 1, [&](int64_t d0, int64_t d1) {
          runtime::Scratch<cfloat> tile(static_cast<std::size_t>(kColTile * h));
          for (int64_t id = d0; id < d1; ++id) {
            fft_cols(vol + id * h * wk, h, wk, 0, wk, *ph, /*inverse=*/true,
                     tile.data());
          }
        });
      }
      runtime::parallel_for(0, d * h, plane_grain(w), [&](int64_t l0, int64_t l1) {
        runtime::Scratch<cfloat> row(static_cast<std::size_t>(w));
        for (int64_t l = l0; l < l1; ++l) {
          irfft_row(vol + l * wk, dst + l * w, *rp, wk, scale, row.data());
        }
      });
    }
  });
}

std::vector<cfloat> fft_2d_real(const float* x, int64_t h, int64_t w) {
  const int64_t wk = rfft_cols(w);
  runtime::Scratch<cfloat> half(static_cast<std::size_t>(h * wk));
  rfft_2d(x, half.data(), 1, h, w, wk);
  std::vector<cfloat> out(static_cast<std::size_t>(h * w));
  for (int64_t k1 = 0; k1 < h; ++k1) {
    for (int64_t k2 = 0; k2 < w; ++k2) {
      out[static_cast<std::size_t>(k1 * w + k2)] =
          k2 < wk ? half.data()[k1 * wk + k2]
                  : std::conj(half.data()[((h - k1) % h) * wk + (w - k2)]);
    }
  }
  return out;
}

}  // namespace saufno
