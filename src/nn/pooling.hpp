/**
 * @file
 * Average and max pooling. ANN-to-SNN conversion requires average
 * pooling (paper Sec. V-A): a max over binary spike maps destroys rate
 * information and cannot be computed by a crossbar, whereas the average
 * is a fixed 1/k^2-weighted sum that an IF layer can follow.
 */

#ifndef NEBULA_NN_POOLING_HPP
#define NEBULA_NN_POOLING_HPP

#include "nn/layer.hpp"

namespace nebula {

/** Non-overlapping (or strided) kxk average pooling. */
class AvgPool2d : public Layer
{
  public:
    explicit AvgPool2d(int kernel, int stride = 0);

    Tensor forward(const Tensor &input, bool train = false) override;
    Tensor backward(const Tensor &grad_output) override;

    LayerKind kind() const override { return LayerKind::AvgPool; }
    std::string name() const override;
    LayerPtr clone() const override { return std::make_unique<AvgPool2d>(*this); }

    int kernel() const { return kernel_; }
    int stride() const { return stride_; }

    /** Output side for an input side of @p in (no padding). */
    int outSize(int in) const { return (in - kernel_) / stride_ + 1; }

    /**
     * Pool @p planes contiguous (in_h, in_w) float planes at @p in into
     * (outSize(in_h), outSize(in_w)) planes at @p out. The one pooling
     * loop: forward() runs it per image, and the chip's SNN plan runs
     * it on its preallocated spike buffers.
     */
    void poolPlanes(const float *in, float *out, int planes, int in_h,
                    int in_w) const;

  private:
    int kernel_, stride_;
    std::vector<int> inputShape_;
};

/** kxk max pooling (kept for ANN baselines; not SNN-convertible). */
class MaxPool2d : public Layer
{
  public:
    explicit MaxPool2d(int kernel, int stride = 0);

    Tensor forward(const Tensor &input, bool train = false) override;
    Tensor backward(const Tensor &grad_output) override;

    LayerKind kind() const override { return LayerKind::MaxPool; }
    std::string name() const override;
    LayerPtr clone() const override { return std::make_unique<MaxPool2d>(*this); }

  private:
    int kernel_, stride_;
    std::vector<int> inputShape_;
    std::vector<int> argmax_; //!< flat input index per output element
};

} // namespace nebula

#endif // NEBULA_NN_POOLING_HPP
