#include "core/identify.h"

#include <cmath>
#include <stdexcept>

#include "core/multiway.h"

namespace tfd::core {

namespace {

constexpr int kF = flow::feature_count;

// Solve the 4x4 system A f = b by Gaussian elimination with partial
// pivoting; returns false if A is (numerically) singular.
bool solve4(double a[kF][kF], double b[kF], double f[kF]) {
    int perm[kF] = {0, 1, 2, 3};
    for (int col = 0; col < kF; ++col) {
        int piv = col;
        for (int r = col + 1; r < kF; ++r)
            if (std::fabs(a[perm[r]][col]) > std::fabs(a[perm[piv]][col]))
                piv = r;
        std::swap(perm[col], perm[piv]);
        const double diag = a[perm[col]][col];
        if (std::fabs(diag) < 1e-12) return false;
        for (int r = col + 1; r < kF; ++r) {
            const double factor = a[perm[r]][col] / diag;
            if (factor == 0.0) continue;
            for (int c = col; c < kF; ++c) a[perm[r]][c] -= factor * a[perm[col]][c];
            b[perm[r]] -= factor * b[perm[col]];
        }
    }
    for (int row = kF - 1; row >= 0; --row) {
        double acc = b[perm[row]];
        for (int c = row + 1; c < kF; ++c) acc -= a[perm[row]][c] * f[c];
        f[row] = acc / a[perm[row]][row];
    }
    return true;
}

}  // namespace

identification identify_flows(const subspace_model& model,
                              std::span<const double> obs,
                              const identify_options& opts) {
    const std::size_t n = model.dimension();
    if (obs.size() != n || n == 0 || n % kF != 0)
        throw std::invalid_argument("identify_flows: dimension mismatch");
    const std::size_t p = n / kF;
    const std::size_t md = model.normal_dims();
    const auto& pc = model.pca().components;  // n x n, first md cols used

    // Centered observation and residual r = C_res h.
    std::vector<double> h(n);
    for (std::size_t i = 0; i < n; ++i) h[i] = obs[i] - model.pca().mean[i];
    std::vector<double> scores(md, 0.0);
    for (std::size_t j = 0; j < md; ++j) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) s += h[i] * pc(i, j);
        scores[j] = s;
    }
    std::vector<double> r = h;
    for (std::size_t j = 0; j < md; ++j)
        for (std::size_t i = 0; i < n; ++i) r[i] -= scores[j] * pc(i, j);

    auto spe_of = [&]() {
        double s = 0.0;
        for (double v : r) s += v * v;
        return s;
    };

    // Precompute per-flow A_k = Theta^T C_res Theta = I - G G^T where row
    // i of G is the md-dim loading of that flow-feature coordinate.
    // A_k never changes across deflation iterations.
    std::vector<std::array<double, kF * kF>> a_all(p);
    for (std::size_t k = 0; k < p; ++k) {
        auto& a = a_all[k];
        for (int i = 0; i < kF; ++i) {
            const std::size_t row_i = static_cast<std::size_t>(i) * p + k;
            for (int j = i; j < kF; ++j) {
                const std::size_t row_j = static_cast<std::size_t>(j) * p + k;
                double dot = 0.0;
                for (std::size_t c = 0; c < md; ++c)
                    dot += pc(row_i, c) * pc(row_j, c);
                const double v = (i == j ? 1.0 : 0.0) - dot;
                a[i * kF + j] = v;
                a[j * kF + i] = v;
            }
        }
    }

    identification out;
    out.spe_before = spe_of();
    double spe = out.spe_before;

    for (std::size_t iter = 0; iter < opts.max_flows; ++iter) {
        if (spe <= opts.stop_threshold) break;

        int best_od = -1;
        double best_value = spe;
        double best_f[kF] = {0, 0, 0, 0};
        for (std::size_t k = 0; k < p; ++k) {
            double a[kF][kF];
            double b[kF];
            for (int i = 0; i < kF; ++i) {
                for (int j = 0; j < kF; ++j) a[i][j] = a_all[k][i * kF + j];
                b[i] = r[static_cast<std::size_t>(i) * p + k];
            }
            double rhs[kF] = {b[0], b[1], b[2], b[3]};
            double f[kF];
            if (!solve4(a, rhs, f)) continue;
            double reduction = 0.0;
            for (int i = 0; i < kF; ++i) reduction += f[i] * b[i];
            const double value = spe - reduction;
            if (value < best_value - 1e-15) {
                best_value = value;
                best_od = static_cast<int>(k);
                for (int i = 0; i < kF; ++i) best_f[i] = f[i];
            }
        }
        if (best_od < 0) break;  // no flow reduces the residual

        // Deflate: r -= C_res Theta_k f  (Theta_k f is sparse: 4 entries).
        double u[64];  // md <= 64 in practice; fall back if larger
        std::vector<double> u_dyn;
        double* up = u;
        if (md > 64) {
            u_dyn.resize(md);
            up = u_dyn.data();
        }
        for (std::size_t c = 0; c < md; ++c) {
            double s = 0.0;
            for (int i = 0; i < kF; ++i)
                s += best_f[i] *
                     pc(static_cast<std::size_t>(i) * p + best_od, c);
            up[c] = s;
        }
        for (int i = 0; i < kF; ++i)
            r[static_cast<std::size_t>(i) * p + best_od] -= best_f[i];
        for (std::size_t c = 0; c < md; ++c) {
            const double s = up[c];
            if (s == 0.0) continue;
            for (std::size_t row = 0; row < n; ++row) r[row] += s * pc(row, c);
        }

        spe = spe_of();
        identified_flow idf;
        idf.od = best_od;
        for (int i = 0; i < kF; ++i) idf.magnitude[i] = best_f[i];
        idf.spe_after = spe;
        out.flows.push_back(idf);
    }

    // Attribution, from the undeflated residual as model.residual()
    // computes it (r above rounds differently): the first identified
    // flow, else the flow with the largest residual energy.
    const auto residual = model.residual(obs);
    if (!out.flows.empty()) {
        out.top_od = out.flows.front().od;
    } else {
        double best = -1.0;
        for (std::size_t k = 0; k < p; ++k) {
            double e = 0.0;
            for (double x : flow_residual(residual, static_cast<int>(k)))
                e += x * x;
            if (e > best) {
                best = e;
                out.top_od = static_cast<int>(k);
            }
        }
    }
    out.h_tilde = to_unit_norm(flow_residual(residual, out.top_od));
    return out;
}

}  // namespace tfd::core
