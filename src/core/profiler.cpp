#include "core/profiler.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace windserve::core {

namespace {

/** Solve the 3x3 linear system A x = b by Gaussian elimination. */
std::array<double, 3>
solve3(std::array<std::array<double, 3>, 3> a, std::array<double, 3> b)
{
    for (int col = 0; col < 3; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 3; ++r)
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        if (std::abs(a[col][col]) < 1e-30)
            throw std::invalid_argument("fit: singular normal equations");
        for (int r = col + 1; r < 3; ++r) {
            double f = a[r][col] / a[col][col];
            for (int c = col; c < 3; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    std::array<double, 3> x{};
    for (int r = 2; r >= 0; --r) {
        double acc = b[r];
        for (int c = r + 1; c < 3; ++c)
            acc -= a[r][c] * x[c];
        x[r] = acc / a[r][r];
    }
    return x;
}

} // namespace

PrefillFit
fit_quadratic(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size() || x.size() < 3)
        throw std::invalid_argument("fit_quadratic: need >= 3 samples");
    // Normal equations for basis (x, x^2, 1).
    double s1 = 0, s2 = 0, s3 = 0, s4 = 0, n = 0;
    double t0 = 0, t1 = 0, t2 = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double xi = x[i], yi = y[i];
        double x2 = xi * xi;
        s1 += xi;
        s2 += x2;
        s3 += x2 * xi;
        s4 += x2 * x2;
        n += 1.0;
        t0 += yi;
        t1 += yi * xi;
        t2 += yi * x2;
    }
    auto sol = solve3({{{s2, s3, s1}, {s3, s4, s2}, {s1, s2, n}}},
                      {t1, t2, t0});
    return PrefillFit{sol[0], sol[1], sol[2]};
}

void
Profiler::calibrate_offline(const model::CostModel &cost, sim::Rng &rng,
                            double noise_sigma,
                            std::size_t samples_per_probe)
{
    static const double probes_n[] = {64,   128,  256,  512, 1024,
                                      1536, 2048, 3072, 4096};
    for (double n : probes_n) {
        for (std::size_t s = 0; s < samples_per_probe; ++s) {
            double noise =
                noise_sigma > 0 ? rng.lognormal(0.0, noise_sigma) : 1.0;
            px_.push_back(n);
            py_.push_back(cost.prefill_time(n) * noise);
        }
    }
    prefill_fit_ = fit_quadratic(px_, py_);
    fitted_ = true;
}

void
Profiler::observe_prefill(double n, double duration)
{
    if (px_.size() >= kMaxSamples) {
        px_.erase(px_.begin(), px_.begin() + kMaxSamples / 2);
        py_.erase(py_.begin(), py_.begin() + kMaxSamples / 2);
    }
    px_.push_back(n);
    py_.push_back(duration);
    if (++since_refit_ < kRefitInterval)
        return;
    since_refit_ = 0;
    try {
        prefill_fit_ = fit_quadratic(px_, py_);
        fitted_ = true;
    } catch (const std::invalid_argument &) {
        // degenerate sample set (all equal N): keep the old fit
    }
}

double
Profiler::predict_prefill(double n) const
{
    if (!fitted_)
        throw std::logic_error("Profiler: not calibrated");
    return std::max(0.0, prefill_fit_.predict(n));
}

double
Profiler::predict_ttft(double queued_tokens, double new_tokens,
                       double inflight_remaining) const
{
    return predict_prefill(queued_tokens + new_tokens) + inflight_remaining;
}

} // namespace windserve::core
