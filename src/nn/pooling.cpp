#include "nn/pooling.hpp"

#include <limits>
#include <sstream>

#include "common/logging.hpp"

namespace nebula {

AvgPool2d::AvgPool2d(int kernel, int stride)
    : kernel_(kernel), stride_(stride > 0 ? stride : kernel)
{
    NEBULA_ASSERT(kernel_ > 0, "bad pooling kernel");
}

std::string
AvgPool2d::name() const
{
    std::ostringstream oss;
    oss << "avgpool" << kernel_ << "x" << kernel_;
    return oss.str();
}

Tensor
AvgPool2d::forward(const Tensor &input, bool train)
{
    NEBULA_ASSERT(input.rank() == 4, "pooling expects NCHW");
    const int batch = input.dim(0), channels = input.dim(1);
    const int in_h = input.dim(2), in_w = input.dim(3);
    const int out_h = outSize(in_h);
    const int out_w = outSize(in_w);
    NEBULA_ASSERT(out_h > 0 && out_w > 0, "pooling output collapsed");

    if (train)
        inputShape_ = input.shape();

    Tensor output({batch, channels, out_h, out_w});
    poolPlanes(input.data(), output.data(), batch * channels, in_h, in_w);
    return output;
}

void
AvgPool2d::poolPlanes(const float *in, float *out, int planes, int in_h,
                      int in_w) const
{
    const int out_h = outSize(in_h);
    const int out_w = outSize(in_w);
    const float inv = 1.0f / (kernel_ * kernel_);
    const size_t in_plane = static_cast<size_t>(in_h) * in_w;
    for (int p = 0; p < planes; ++p, in += in_plane) {
        for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow) {
                // Taps summed kh-major in float, then one multiply by
                // the reciprocal tap count.
                const float *tap =
                    in + static_cast<size_t>(oh * stride_) * in_w +
                    ow * stride_;
                float acc = 0.0f;
                for (int kh = 0; kh < kernel_; ++kh, tap += in_w)
                    for (int kw = 0; kw < kernel_; ++kw)
                        acc += tap[kw];
                *out++ = acc * inv;
            }
        }
    }
}

Tensor
AvgPool2d::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(!inputShape_.empty(), "pool backward before train forward");
    Tensor grad_input(inputShape_);
    const int batch = grad_output.dim(0), channels = grad_output.dim(1);
    const int out_h = grad_output.dim(2), out_w = grad_output.dim(3);
    const float inv = 1.0f / (kernel_ * kernel_);
    for (int n = 0; n < batch; ++n)
        for (int c = 0; c < channels; ++c)
            for (int oh = 0; oh < out_h; ++oh)
                for (int ow = 0; ow < out_w; ++ow) {
                    const float g = grad_output.at(n, c, oh, ow) * inv;
                    for (int kh = 0; kh < kernel_; ++kh)
                        for (int kw = 0; kw < kernel_; ++kw)
                            grad_input.at(n, c, oh * stride_ + kh,
                                          ow * stride_ + kw) += g;
                }
    return grad_input;
}

MaxPool2d::MaxPool2d(int kernel, int stride)
    : kernel_(kernel), stride_(stride > 0 ? stride : kernel)
{
    NEBULA_ASSERT(kernel_ > 0, "bad pooling kernel");
}

std::string
MaxPool2d::name() const
{
    std::ostringstream oss;
    oss << "maxpool" << kernel_ << "x" << kernel_;
    return oss.str();
}

Tensor
MaxPool2d::forward(const Tensor &input, bool train)
{
    NEBULA_ASSERT(input.rank() == 4, "pooling expects NCHW");
    const int batch = input.dim(0), channels = input.dim(1);
    const int in_h = input.dim(2), in_w = input.dim(3);
    const int out_h = (in_h - kernel_) / stride_ + 1;
    const int out_w = (in_w - kernel_) / stride_ + 1;
    NEBULA_ASSERT(out_h > 0 && out_w > 0, "pooling output collapsed");

    Tensor output({batch, channels, out_h, out_w});
    if (train) {
        inputShape_ = input.shape();
        argmax_.assign(static_cast<size_t>(output.size()), 0);
    }

    long long idx = 0;
    for (int n = 0; n < batch; ++n) {
        for (int c = 0; c < channels; ++c) {
            for (int oh = 0; oh < out_h; ++oh) {
                for (int ow = 0; ow < out_w; ++ow, ++idx) {
                    float best = -std::numeric_limits<float>::infinity();
                    int best_flat = 0;
                    for (int kh = 0; kh < kernel_; ++kh) {
                        const int ih = oh * stride_ + kh;
                        for (int kw = 0; kw < kernel_; ++kw) {
                            const int iw = ow * stride_ + kw;
                            const float v = input.at(n, c, ih, iw);
                            if (v > best) {
                                best = v;
                                best_flat = static_cast<int>(
                                    ((static_cast<long long>(n) * channels +
                                      c) * in_h + ih) * in_w + iw);
                            }
                        }
                    }
                    output.at(n, c, oh, ow) = best;
                    if (train)
                        argmax_[static_cast<size_t>(idx)] = best_flat;
                }
            }
        }
    }
    return output;
}

Tensor
MaxPool2d::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(!inputShape_.empty() &&
                      argmax_.size() ==
                          static_cast<size_t>(grad_output.size()),
                  "maxpool backward before train forward");
    Tensor grad_input(inputShape_);
    for (long long i = 0; i < grad_output.size(); ++i)
        grad_input[argmax_[static_cast<size_t>(i)]] += grad_output[i];
    return grad_input;
}

} // namespace nebula
