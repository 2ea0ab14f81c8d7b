#include "src/kernels/golden.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "src/common/bitutil.hpp"

namespace tcdm::golden {

float dotp(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  // Accumulate in double to provide a tight reference for tolerance checks.
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void matmul(std::span<const float> a, std::span<const float> b, std::span<float> c,
            std::size_t n) {
  assert(a.size() == n * n && b.size() == n * n && c.size() == n * n);
  // Row-streaming order: each acc[j] still sums k = 0..n-1 in order, so
  // every element is bit-identical to the dot-product form, but B is read
  // row by row. Walking B's columns touches one cache line per element, and
  // its speed swung with the physical placement of B's pages.
  std::vector<double> acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) acc[j] += aik * b[k * n + j];
    }
    for (std::size_t j = 0; j < n; ++j) c[i * n + j] = static_cast<float>(acc[j]);
  }
}

void fft(std::span<float> re, std::span<float> im) {
  const std::size_t n = re.size();
  assert(im.size() == n && is_pow2(n));
  const unsigned bits = log2_exact(n);

  // Bit-reversal permutation, then iterative DIT butterflies.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = bit_reverse(i, bits);
    if (r > i) {
      std::swap(re[i], re[r]);
      std::swap(im[i], im[r]);
    }
  }
  for (std::size_t m = 2; m <= n; m *= 2) {
    const std::size_t half = m / 2;
    for (std::size_t k = 0; k < n; k += m) {
      for (std::size_t j = 0; j < half; ++j) {
        const double ang = -2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(m);
        const float wr = static_cast<float>(std::cos(ang));
        const float wi = static_cast<float>(std::sin(ang));
        const float br = re[k + j + half];
        const float bi = im[k + j + half];
        const float vr = br * wr - bi * wi;
        const float vi = br * wi + bi * wr;
        const float ur = re[k + j];
        const float ui = im[k + j];
        re[k + j] = ur + vr;
        im[k + j] = ui + vi;
        re[k + j + half] = ur - vr;
        im[k + j + half] = ui - vi;
      }
    }
  }
}

void gemv(std::span<const float> a, std::span<const float> x, std::span<float> y,
          std::size_t m, std::size_t n) {
  assert(a.size() == m * n && x.size() == n && y.size() == m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[i * n + j]) * x[j];
    }
    y[i] = static_cast<float>(acc);
  }
}

void conv2d_3x3(std::span<const float> in, std::span<const float> k, std::span<float> out,
                std::size_t h, std::size_t w) {
  assert(h >= 3 && w >= 3);
  assert(in.size() == h * w && k.size() == 9 && out.size() == (h - 2) * (w - 2));
  for (std::size_t y = 0; y + 2 < h; ++y) {
    for (std::size_t x = 0; x + 2 < w; ++x) {
      double acc = 0.0;
      for (std::size_t dy = 0; dy < 3; ++dy) {
        for (std::size_t dx = 0; dx < 3; ++dx) {
          acc += static_cast<double>(k[dy * 3 + dx]) * in[(y + dy) * w + (x + dx)];
        }
      }
      out[y * (w - 2) + x] = static_cast<float>(acc);
    }
  }
}

void jacobi2d(std::span<const float> in, std::span<float> out, std::size_t h, std::size_t w) {
  assert(h >= 3 && w >= 3);
  assert(in.size() == h * w && out.size() == h * w);
  std::copy(in.begin(), in.end(), out.begin());
  for (std::size_t i = 1; i + 1 < h; ++i) {
    for (std::size_t j = 1; j + 1 < w; ++j) {
      out[i * w + j] = 0.25f * (in[(i - 1) * w + j] + in[(i + 1) * w + j] +
                                in[i * w + j - 1] + in[i * w + j + 1]);
    }
  }
}

void transpose(std::span<const float> a, std::span<float> b, std::size_t n) {
  assert(a.size() == n * n && b.size() == n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[j * n + i] = a[i * n + j];
    }
  }
}

void relu(std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::max(x[i], 0.0f);
}

void maxpool2x2(std::span<const float> in, std::span<float> out, std::size_t h,
                std::size_t w) {
  assert(h % 2 == 0 && w % 2 == 0);
  assert(in.size() == h * w && out.size() == (h / 2) * (w / 2));
  for (std::size_t i = 0; i < h / 2; ++i) {
    for (std::size_t j = 0; j < w / 2; ++j) {
      const std::size_t r = 2 * i * w + 2 * j;
      out[i * (w / 2) + j] =
          std::max(std::max(in[r], in[r + 1]), std::max(in[r + w], in[r + w + 1]));
    }
  }
}

bool close(float actual, float expected, float rel_tol, float abs_tol) {
  const float diff = std::fabs(actual - expected);
  return diff <= abs_tol + rel_tol * std::fabs(expected);
}

bool all_close(std::span<const float> actual, std::span<const float> expected, float rel_tol,
               float abs_tol) {
  if (actual.size() != expected.size()) return false;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (!close(actual[i], expected[i], rel_tol, abs_tol)) return false;
  }
  return true;
}

}  // namespace tcdm::golden
