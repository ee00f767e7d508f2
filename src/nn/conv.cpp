#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"
#include "nn/gemm.hpp"

namespace nebula {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, bool bias)
    : inChannels_(in_channels), outChannels_(out_channels), kernel_(kernel),
      stride_(stride), padding_(padding), hasBias_(bias),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({std::max(out_channels, 1)}),
      weightGrad_({out_channels, in_channels, kernel, kernel}),
      biasGrad_({std::max(out_channels, 1)})
{
    NEBULA_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                      stride > 0 && padding >= 0,
                  "bad conv geometry");
}

void
Conv2d::initKaiming(Rng &rng)
{
    const float fan_in = static_cast<float>(receptiveField());
    const float bound = std::sqrt(6.0f / fan_in);
    weight_.uniform(rng, -bound, bound);
    if (hasBias_)
        bias_.zero();
}

std::string
Conv2d::name() const
{
    std::ostringstream oss;
    oss << "conv" << kernel_ << "x" << kernel_ << "(" << inChannels_ << "->"
        << outChannels_ << ",s" << stride_ << ")";
    return oss.str();
}

void
Conv2d::computeOutputGeometry(int in_h, int in_w)
{
    inH_ = in_h;
    inW_ = in_w;
    outH_ = (in_h + 2 * padding_ - kernel_) / stride_ + 1;
    outW_ = (in_w + 2 * padding_ - kernel_) / stride_ + 1;
    NEBULA_ASSERT(outH_ > 0 && outW_ > 0, "conv output collapsed: input ",
                  in_h, "x", in_w, " kernel ", kernel_);
}

void
Conv2d::im2col(const Tensor &input, int n, std::vector<float> &col) const
{
    // col: (Cin*K*K) x (outH*outW), row-major.
    const int positions = outH_ * outW_;
    col.assign(static_cast<size_t>(receptiveField()) * positions, 0.0f);
    const size_t plane = static_cast<size_t>(inH_) * inW_;
    size_t r = 0;
    for (int c = 0; c < inChannels_; ++c) {
        const float *src =
            input.data() + (static_cast<size_t>(n) * inChannels_ + c) * plane;
        for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw, ++r) {
                float *dst = col.data() + r * positions;
                for (int oh = 0; oh < outH_; ++oh) {
                    const int ih = oh * stride_ - padding_ + kh;
                    if (ih < 0 || ih >= inH_)
                        continue;
                    const float *row = src + static_cast<size_t>(ih) * inW_;
                    for (int ow = 0; ow < outW_; ++ow) {
                        const int iw = ow * stride_ - padding_ + kw;
                        if (iw < 0 || iw >= inW_)
                            continue;
                        dst[oh * outW_ + ow] = row[iw];
                    }
                }
            }
        }
    }
}

void
Conv2d::col2im(const std::vector<float> &col, Tensor &grad_input, int n) const
{
    const int positions = outH_ * outW_;
    const size_t plane = static_cast<size_t>(inH_) * inW_;
    size_t r = 0;
    for (int c = 0; c < inChannels_; ++c) {
        float *dst = grad_input.data() +
                     (static_cast<size_t>(n) * inChannels_ + c) * plane;
        for (int kh = 0; kh < kernel_; ++kh) {
            for (int kw = 0; kw < kernel_; ++kw, ++r) {
                const float *src = col.data() + r * positions;
                for (int oh = 0; oh < outH_; ++oh) {
                    const int ih = oh * stride_ - padding_ + kh;
                    if (ih < 0 || ih >= inH_)
                        continue;
                    float *row = dst + static_cast<size_t>(ih) * inW_;
                    for (int ow = 0; ow < outW_; ++ow) {
                        const int iw = ow * stride_ - padding_ + kw;
                        if (iw < 0 || iw >= inW_)
                            continue;
                        row[iw] += src[oh * outW_ + ow];
                    }
                }
            }
        }
    }
}

Tensor
Conv2d::forward(const Tensor &input, bool train)
{
    NEBULA_ASSERT(input.rank() == 4, "conv expects NCHW input, got ",
                  input.shapeString());
    NEBULA_ASSERT(input.dim(1) == inChannels_, "conv channel mismatch: ",
                  input.dim(1), " != ", inChannels_);
    const int batch = input.dim(0);
    computeOutputGeometry(input.dim(2), input.dim(3));

    if (train)
        input_ = input;

    Tensor output({batch, outChannels_, outH_, outW_});
    const int positions = outH_ * outW_;
    std::vector<float> col;
    for (int n = 0; n < batch; ++n) {
        im2col(input, n, col);
        float *out = output.data() +
                     static_cast<size_t>(n) * outChannels_ * positions;
        gemm(outChannels_, positions, receptiveField(), weight_.data(),
             col.data(), out);
        if (hasBias_) {
            for (int c = 0; c < outChannels_; ++c) {
                const float b = bias_[c];
                float *dst = out + static_cast<size_t>(c) * positions;
                for (int p = 0; p < positions; ++p)
                    dst[p] += b;
            }
        }
    }
    return output;
}

Tensor
Conv2d::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(input_.size() > 0, "conv backward before train forward");
    const int batch = input_.dim(0);
    const int positions = outH_ * outW_;

    Tensor grad_input(input_.shape());
    std::vector<float> col;
    std::vector<float> dcol(static_cast<size_t>(receptiveField()) *
                            positions);

    for (int n = 0; n < batch; ++n) {
        const float *dout = grad_output.data() +
                            static_cast<size_t>(n) * outChannels_ * positions;
        // dW += dOut * col^T
        im2col(input_, n, col);
        gemmTransB(outChannels_, receptiveField(), positions, dout,
                   col.data(), weightGrad_.data(), true);
        // dcol = W^T * dOut
        gemmTransA(receptiveField(), positions, outChannels_, weight_.data(),
                   dout, dcol.data());
        col2im(dcol, grad_input, n);
        if (hasBias_) {
            for (int c = 0; c < outChannels_; ++c) {
                double s = 0.0;
                const float *src = dout + static_cast<size_t>(c) * positions;
                for (int p = 0; p < positions; ++p)
                    s += src[p];
                biasGrad_[c] += static_cast<float>(s);
            }
        }
    }
    return grad_input;
}

std::vector<Tensor *>
Conv2d::parameters()
{
    if (hasBias_)
        return {&weight_, &bias_};
    return {&weight_};
}

std::vector<Tensor *>
Conv2d::gradients()
{
    if (hasBias_)
        return {&weightGrad_, &biasGrad_};
    return {&weightGrad_};
}

DwConv2d::DwConv2d(int channels, int kernel, int stride, int padding,
                   bool bias)
    : channels_(channels), kernel_(kernel), stride_(stride),
      padding_(padding), hasBias_(bias), weight_({channels, kernel, kernel}),
      bias_({channels}), weightGrad_({channels, kernel, kernel}),
      biasGrad_({channels})
{
    NEBULA_ASSERT(channels > 0 && kernel > 0 && stride > 0 && padding >= 0,
                  "bad depthwise conv geometry");
}

void
DwConv2d::initKaiming(Rng &rng)
{
    const float bound = std::sqrt(6.0f / (kernel_ * kernel_));
    weight_.uniform(rng, -bound, bound);
    if (hasBias_)
        bias_.zero();
}

std::string
DwConv2d::name() const
{
    std::ostringstream oss;
    oss << "dwconv" << kernel_ << "x" << kernel_ << "(" << channels_ << ",s"
        << stride_ << ")";
    return oss.str();
}

Tensor
DwConv2d::forward(const Tensor &input, bool train)
{
    NEBULA_ASSERT(input.rank() == 4 && input.dim(1) == channels_,
                  "depthwise conv shape mismatch");
    const int batch = input.dim(0);
    const int in_h = input.dim(2), in_w = input.dim(3);
    outH_ = (in_h + 2 * padding_ - kernel_) / stride_ + 1;
    outW_ = (in_w + 2 * padding_ - kernel_) / stride_ + 1;
    NEBULA_ASSERT(outH_ > 0 && outW_ > 0, "depthwise output collapsed");

    if (train)
        input_ = input;

    Tensor output({batch, channels_, outH_, outW_});
    for (int n = 0; n < batch; ++n) {
        for (int c = 0; c < channels_; ++c) {
            const float *w =
                weight_.data() + static_cast<size_t>(c) * kernel_ * kernel_;
            const float b = hasBias_ ? bias_[c] : 0.0f;
            for (int oh = 0; oh < outH_; ++oh) {
                for (int ow = 0; ow < outW_; ++ow) {
                    float acc = b;
                    for (int kh = 0; kh < kernel_; ++kh) {
                        const int ih = oh * stride_ - padding_ + kh;
                        if (ih < 0 || ih >= in_h)
                            continue;
                        for (int kw = 0; kw < kernel_; ++kw) {
                            const int iw = ow * stride_ - padding_ + kw;
                            if (iw < 0 || iw >= in_w)
                                continue;
                            acc += w[kh * kernel_ + kw] *
                                   input.at(n, c, ih, iw);
                        }
                    }
                    output.at(n, c, oh, ow) = acc;
                }
            }
        }
    }
    return output;
}

Tensor
DwConv2d::backward(const Tensor &grad_output)
{
    NEBULA_ASSERT(input_.size() > 0,
                  "depthwise backward before train forward");
    const int batch = input_.dim(0);
    const int in_h = input_.dim(2), in_w = input_.dim(3);

    Tensor grad_input(input_.shape());
    for (int n = 0; n < batch; ++n) {
        for (int c = 0; c < channels_; ++c) {
            const float *w =
                weight_.data() + static_cast<size_t>(c) * kernel_ * kernel_;
            float *dw = weightGrad_.data() +
                        static_cast<size_t>(c) * kernel_ * kernel_;
            for (int oh = 0; oh < outH_; ++oh) {
                for (int ow = 0; ow < outW_; ++ow) {
                    const float g = grad_output.at(n, c, oh, ow);
                    if (g == 0.0f)
                        continue;
                    if (hasBias_)
                        biasGrad_[c] += g;
                    for (int kh = 0; kh < kernel_; ++kh) {
                        const int ih = oh * stride_ - padding_ + kh;
                        if (ih < 0 || ih >= in_h)
                            continue;
                        for (int kw = 0; kw < kernel_; ++kw) {
                            const int iw = ow * stride_ - padding_ + kw;
                            if (iw < 0 || iw >= in_w)
                                continue;
                            dw[kh * kernel_ + kw] +=
                                g * input_.at(n, c, ih, iw);
                            grad_input.at(n, c, ih, iw) +=
                                g * w[kh * kernel_ + kw];
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

std::vector<Tensor *>
DwConv2d::parameters()
{
    if (hasBias_)
        return {&weight_, &bias_};
    return {&weight_};
}

std::vector<Tensor *>
DwConv2d::gradients()
{
    if (hasBias_)
        return {&weightGrad_, &biasGrad_};
    return {&weightGrad_};
}

} // namespace nebula
