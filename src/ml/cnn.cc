#include "ml/cnn.h"

#include <algorithm>
#include <cmath>

#include "ml/logistic_regression.h"  // SoftmaxInPlace
#include "ml/matrix.h"
#include "util/logging.h"

namespace fedshap {

Cnn::Cnn(int side, int filters, int num_classes)
    : side_(side), filters_(filters), num_classes_(num_classes) {
  FEDSHAP_CHECK(side >= 6);  // need a >=2x2 pooled map after conv+pool
  FEDSHAP_CHECK(filters >= 1);
  FEDSHAP_CHECK(num_classes >= 2);
  params_.assign(DenseB() + num_classes_, 0.0f);
}

std::unique_ptr<Model> Cnn::Clone() const {
  return std::make_unique<Cnn>(*this);
}

std::string Cnn::Name() const {
  return "cnn(" + std::to_string(side_) + "x" + std::to_string(side_) +
         ",f" + std::to_string(filters_) + "-" +
         std::to_string(num_classes_) + ")";
}

void Cnn::InitializeParameters(Rng& rng) {
  const double conv_scale = std::sqrt(2.0 / 9.0);
  const double dense_scale = std::sqrt(1.0 / static_cast<double>(flat_size()));
  for (size_t i = ConvW(); i < ConvB(); ++i) {
    params_[i] = static_cast<float>(rng.Gaussian(0.0, conv_scale));
  }
  std::fill(params_.begin() + ConvB(), params_.begin() + DenseW(), 0.0f);
  for (size_t i = DenseW(); i < DenseB(); ++i) {
    params_[i] = static_cast<float>(rng.Gaussian(0.0, dense_scale));
  }
  std::fill(params_.begin() + DenseB(), params_.end(), 0.0f);
}

void Cnn::Forward(const float* x, std::vector<float>& conv_act,
                  std::vector<float>& pooled, std::vector<int>& pool_argmax,
                  std::vector<float>& probs) const {
  const int cs = conv_side();
  const int ps = pool_side();
  conv_act.assign(static_cast<size_t>(filters_) * conv_area(), 0.0f);
  pooled.assign(flat_size(), 0.0f);
  pool_argmax.assign(flat_size(), 0);

  const float* conv_w = params_.data() + ConvW();
  const float* conv_b = params_.data() + ConvB();
  for (int f = 0; f < filters_; ++f) {
    const float* w = conv_w + static_cast<size_t>(f) * 9;
    float* map = conv_act.data() + static_cast<size_t>(f) * conv_area();
    for (int r = 0; r < cs; ++r) {
      for (int c = 0; c < cs; ++c) {
        float acc = conv_b[f];
        for (int dr = 0; dr < 3; ++dr) {
          const float* src = x + (r + dr) * side_ + c;
          acc += w[dr * 3 + 0] * src[0] + w[dr * 3 + 1] * src[1] +
                 w[dr * 3 + 2] * src[2];
        }
        map[r * cs + c] = acc > 0.0f ? acc : 0.0f;  // ReLU
      }
    }
    // 2x2 max pooling (stride 2); remembers the winning offset for backprop.
    float* pooled_map = pooled.data() + static_cast<size_t>(f) * pool_area();
    int* argmax_map =
        pool_argmax.data() + static_cast<size_t>(f) * pool_area();
    for (int pr = 0; pr < ps; ++pr) {
      for (int pc = 0; pc < ps; ++pc) {
        float best = -1.0f;
        int best_idx = (2 * pr) * cs + 2 * pc;
        for (int dr = 0; dr < 2; ++dr) {
          for (int dc = 0; dc < 2; ++dc) {
            const int idx = (2 * pr + dr) * cs + (2 * pc + dc);
            if (map[idx] > best) {
              best = map[idx];
              best_idx = idx;
            }
          }
        }
        pooled_map[pr * ps + pc] = best;
        argmax_map[pr * ps + pc] = best_idx;
      }
    }
  }

  // Dense head over the flattened pooled maps.
  probs.assign(num_classes_, 0.0f);
  const float* dense_w = params_.data() + DenseW();
  const float* dense_b = params_.data() + DenseB();
  for (int c = 0; c < num_classes_; ++c) {
    const float* row = dense_w + static_cast<size_t>(c) * flat_size();
    float acc = dense_b[c];
    for (size_t i = 0; i < flat_size(); ++i) acc += row[i] * pooled[i];
    probs[c] = acc;
  }
  SoftmaxInPlace(probs);
}

void Cnn::ComputeGradient(const Dataset& data,
                          const std::vector<size_t>& batch,
                          std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  FEDSHAP_CHECK(data.num_features() == side_ * side_);

  const int cs = conv_side();
  std::vector<float> conv_act, pooled, probs;
  std::vector<int> pool_argmax;
  std::vector<float> dpooled(flat_size());
  std::vector<float> row(static_cast<size_t>(data.num_features()));

  const float* dense_w = params_.data() + DenseW();
  for (size_t idx : batch) {
    data.CopyRow(idx, row.data());
    const float* x = row.data();
    const int label = data.ClassLabel(idx);
    Forward(x, conv_act, pooled, pool_argmax, probs);

    // Dense layer backward.
    std::fill(dpooled.begin(), dpooled.end(), 0.0f);
    float* gdense_w = grad.data() + DenseW();
    float* gdense_b = grad.data() + DenseB();
    for (int c = 0; c < num_classes_; ++c) {
      const float delta = probs[c] - (c == label ? 1.0f : 0.0f);
      const float* w_row = dense_w + static_cast<size_t>(c) * flat_size();
      float* gw_row = gdense_w + static_cast<size_t>(c) * flat_size();
      for (size_t i = 0; i < flat_size(); ++i) {
        gw_row[i] += delta * pooled[i];
        dpooled[i] += delta * w_row[i];
      }
      gdense_b[c] += delta;
    }

    // Pool -> ReLU -> conv backward. Gradients flow only through each pool
    // window's argmax and only where the ReLU was active.
    float* gconv_w = grad.data() + ConvW();
    float* gconv_b = grad.data() + ConvB();
    for (int f = 0; f < filters_; ++f) {
      const float* map = conv_act.data() + static_cast<size_t>(f) * conv_area();
      const float* dpool_map =
          dpooled.data() + static_cast<size_t>(f) * pool_area();
      const int* argmax_map =
          pool_argmax.data() + static_cast<size_t>(f) * pool_area();
      float* gw = gconv_w + static_cast<size_t>(f) * 9;
      for (size_t p = 0; p < pool_area(); ++p) {
        const float dact = dpool_map[p];
        if (dact == 0.0f) continue;
        const int conv_idx = argmax_map[p];
        if (map[conv_idx] <= 0.0f) continue;  // ReLU gate
        const int r = conv_idx / cs;
        const int c = conv_idx % cs;
        for (int dr = 0; dr < 3; ++dr) {
          const float* src = x + (r + dr) * side_ + c;
          gw[dr * 3 + 0] += dact * src[0];
          gw[dr * 3 + 1] += dact * src[1];
          gw[dr * 3 + 2] += dact * src[2];
        }
        gconv_b[f] += dact;
      }
    }
  }
  const float inv = 1.0f / static_cast<float>(batch.size());
  for (float& g : grad) g *= inv;
}

void Cnn::ForwardRows(const float* xb, size_t n, BatchActivations& act,
                      float* logits) const {
  const int cs = conv_side();
  const int ps = pool_side();
  const size_t ca = conv_area();
  const size_t pa = pool_area();
  const size_t flat = flat_size();
  const size_t classes = static_cast<size_t>(num_classes_);
  const size_t filters = static_cast<size_t>(filters_);
  const size_t feat = static_cast<size_t>(side_) * side_;
  static thread_local AlignedFloats col_t, wdt;

  // im2col: one row of 9 patch pixels per (example, conv position),
  // plus its transpose. The whole batch's 3x3 convolution then becomes
  // one (filters x 9) * (9 x n*ca) product whose inner loops run over
  // all n*ca conv positions at once — with only `filters` output rows,
  // the row-major orientation would leave the saxpy width at `filters`.
  const size_t n_conv = n * ca;
  act.col.resize(n_conv * 9);
  for (size_t i = 0; i < n; ++i) {
    const float* x = xb + i * feat;
    float* example_rows = act.col.data() + i * ca * 9;
    for (int r = 0; r < cs; ++r) {
      for (int c = 0; c < cs; ++c) {
        float* row = example_rows + (static_cast<size_t>(r) * cs + c) * 9;
        for (int dr = 0; dr < 3; ++dr) {
          const float* src = x + (r + dr) * side_ + c;
          row[dr * 3 + 0] = src[0];
          row[dr * 3 + 1] = src[1];
          row[dr * 3 + 2] = src[2];
        }
      }
    }
  }
  col_t.resize(9 * n_conv);
  Transpose(act.col.data(), n_conv, 9, col_t.data());

  // conv: filter-major (filters x n*ca) with each filter's maps laid
  // out exactly like the per-example path's conv_act, then fused
  // per-filter bias + ReLU.
  act.conv.resize(filters * n_conv);
  MatMul(params_.data() + ConvW(), filters, 9, col_t.data(), n_conv,
         act.conv.data());
  const float* conv_b = params_.data() + ConvB();
  for (size_t f = 0; f < filters; ++f) {
    float* map = act.conv.data() + f * n_conv;
    const float bias = conv_b[f];
    for (size_t p = 0; p < n_conv; ++p) {
      const float v = map[p] + bias;
      map[p] = v > 0.0f ? v : 0.0f;
    }
  }

  // 2x2/2 max pooling into the per-example flatten order the dense head
  // expects ([filter][pool position]), remembering each window's argmax
  // with the same strictly-greater tie-breaking as the reference path.
  act.pooled.resize(n * flat);
  act.pool_argmax.resize(n * flat);
  for (size_t i = 0; i < n; ++i) {
    float* pooled_i = act.pooled.data() + i * flat;
    int* argmax_i = act.pool_argmax.data() + i * flat;
    for (size_t f = 0; f < filters; ++f) {
      const float* map = act.conv.data() + f * n_conv + i * ca;
      for (int pr = 0; pr < ps; ++pr) {
        for (int pc = 0; pc < ps; ++pc) {
          float best = -1.0f;
          int best_idx = (2 * pr) * cs + 2 * pc;
          for (int dr = 0; dr < 2; ++dr) {
            for (int dc = 0; dc < 2; ++dc) {
              const int idx = (2 * pr + dr) * cs + (2 * pc + dc);
              if (map[idx] > best) {
                best = map[idx];
                best_idx = idx;
              }
            }
          }
          pooled_i[f * pa + pr * ps + pc] = best;
          argmax_i[f * pa + pr * ps + pc] = best_idx;
        }
      }
    }
  }

  // Dense head: logits = pooled * Wd^T + bd.
  wdt.resize(flat * classes);
  Transpose(params_.data() + DenseW(), classes, flat, wdt.data());
  MatMul(act.pooled.data(), n, flat, wdt.data(), classes, logits);
  AddBiasRows(logits, n, classes, params_.data() + DenseB());
}

void Cnn::ComputeGradientBatched(const Dataset& data,
                                 const std::vector<size_t>& batch,
                                 std::vector<float>& grad) const {
  grad.assign(params_.size(), 0.0f);
  if (batch.empty()) return;
  FEDSHAP_CHECK(data.num_features() == side_ * side_);
  const size_t bsz = batch.size();
  const size_t ca = conv_area();
  const size_t pa = pool_area();
  const size_t flat = flat_size();
  const size_t classes = static_cast<size_t>(num_classes_);
  const size_t filters = static_cast<size_t>(filters_);
  const size_t n_conv = bsz * ca;
  const float inv = 1.0f / static_cast<float>(bsz);

  static thread_local AlignedFloats xb, probs, dpooled, dconv;
  static thread_local BatchActivations act;
  GatherRows(data, batch, xb);
  probs.resize(bsz * classes);
  ForwardRows(xb.data(), bsz, act, probs.data());
  SoftmaxRows(probs.data(), bsz, classes);

  // probs becomes the logit deltas (p_c - 1[c == label]) in place.
  for (size_t i = 0; i < bsz; ++i) {
    probs[i * classes + data.ClassLabel(batch[i])] -= 1.0f;
  }

  // Dense gradients, then backprop onto the pooled activations.
  AddOuterBatch(grad.data() + DenseW(), classes, flat, inv, probs.data(),
                act.pooled.data(), bsz);
  ColumnSums(probs.data(), bsz, classes, grad.data() + DenseB());
  dpooled.resize(bsz * flat);
  MatMul(probs.data(), bsz, classes, params_.data() + DenseW(), flat,
         dpooled.data());

  // Route each pooled gradient to its window's argmax (windows are
  // disjoint, so each conv position receives at most one), gated by the
  // ReLU. dconv is mostly zeros; AddOuterBatch skips the zero rows.
  // dconv stays (bsz*ca x filters), the orientation the rank-k gradient
  // update below consumes directly.
  dconv.assign(n_conv * filters, 0.0f);
  for (size_t i = 0; i < bsz; ++i) {
    const float* dpooled_i = dpooled.data() + i * flat;
    const int* argmax_i = act.pool_argmax.data() + i * flat;
    float* dconv_i = dconv.data() + i * ca * filters;
    for (size_t f = 0; f < filters; ++f) {
      const float* map = act.conv.data() + f * n_conv + i * ca;
      for (size_t p = 0; p < pa; ++p) {
        const float dact = dpooled_i[f * pa + p];
        if (dact == 0.0f) continue;
        const size_t conv_idx = static_cast<size_t>(argmax_i[f * pa + p]);
        if (map[conv_idx] <= 0.0f) continue;  // ReLU gate
        dconv_i[conv_idx * filters + f] = dact;
      }
    }
  }

  // Conv gradients: gW = dconv^T * im2col, gb = column sums of dconv.
  AddOuterBatch(grad.data() + ConvW(), filters, 9, inv, dconv.data(),
                act.col.data(), n_conv);
  ColumnSums(dconv.data(), n_conv, filters, grad.data() + ConvB());
  for (size_t c = 0; c < classes; ++c) grad[DenseB() + c] *= inv;
  for (size_t f = 0; f < filters; ++f) grad[ConvB() + f] *= inv;
}

void Cnn::ForwardBatch(const float* rows, size_t n, float* out) const {
  static thread_local BatchActivations act;
  ForwardRows(rows, n, act, out);
}

}  // namespace fedshap
