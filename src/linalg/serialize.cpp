#include "linalg/serialize.h"

namespace tfd::linalg {

void save(io::wire_writer& w, std::span<const double> v) {
    w.varint(v.size());
    for (double x : v) w.f64(x);
}

void load(io::wire_reader& r, std::vector<double>& v) {
    const std::uint64_t n = r.varint();
    if (n > r.remaining() / 8) r.fail("implausible vector length");
    v.resize(static_cast<std::size_t>(n));
    for (double& x : v) x = r.f64();
}

void save(io::wire_writer& w, const matrix& m) {
    w.varint(m.rows());
    w.varint(m.cols());
    for (double x : m.data()) w.f64(x);
}

void load(io::wire_reader& r, matrix& m) {
    const std::uint64_t rows = r.varint();
    const std::uint64_t cols = r.varint();
    if (cols != 0 && rows > r.remaining() / 8 / cols)
        r.fail("implausible matrix shape");
    m.resize(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    for (double& x : m.data()) x = r.f64();
}

void save(io::wire_writer& w, const pca_result& p) {
    save(w, p.mean);
    save(w, p.eigenvalues);
    save(w, p.components);
    w.f64(p.total_variance);
    for (double m : p.spectrum_moments) w.f64(m);
    w.u8(1);
}

void load(io::wire_reader& r, pca_result& p) {
    load(r, p.mean);
    load(r, p.eigenvalues);
    load(r, p.components);
    p.total_variance = r.f64();
    for (double& m : p.spectrum_moments) m = r.f64();
    if (r.u8() != 1) r.fail("pca: bad partial-spectrum flag");
}

}  // namespace tfd::linalg
