// fig4_scatter — reproduces Figure 4: per-timebin residual multiway
// entropy ||h~||^2 against residual byte counts ||b~||^2 (a) and packet
// counts ||p~||^2 (b), with alpha = 0.999 thresholds partitioning the
// plane into quadrants.
//
// Expected shape (paper): the anomaly sets detected by volume and by
// entropy are largely disjoint — most detected points lie in the
// "entropy-only" (upper-left) or "volume-only" (lower-right) quadrants,
// with a smaller overlap for packets than total disjointness for bytes.
#include <cstdio>

#include "bench/common.h"

using namespace tfd;
using namespace tfd::bench;
using namespace tfd::diagnosis;

namespace {

void quadrants(const char* title, const std::vector<double>& volume_spe,
               double volume_thr, const std::vector<double>& entropy_spe,
               double entropy_thr) {
    std::size_t neither = 0, vol_only = 0, ent_only = 0, both = 0;
    for (std::size_t b = 0; b < volume_spe.size(); ++b) {
        const bool v = volume_spe[b] > volume_thr;
        const bool e = entropy_spe[b] > entropy_thr;
        if (v && e) ++both;
        else if (v) ++vol_only;
        else if (e) ++ent_only;
        else ++neither;
    }
    std::printf("%s\n", title);
    std::printf("  thresholds: volume %.4g, entropy %.4g\n", volume_thr,
                entropy_thr);
    std::printf("  quadrants: neither=%zu  volume-only=%zu  entropy-only=%zu "
                " both=%zu\n\n",
                neither, vol_only, ent_only, both);
}

}  // namespace

int main(int argc, char** argv) {
    auto args = bench_args::parse(argc, argv);
    const std::size_t bins = args.bins_or(2016);  // paper: 1 week Abilene
    banner("Figure 4: entropy detections vs volume detections", args, bins,
           "Abilene");

    auto study = abilene_study(args, bins);
    std::printf("planted anomalies: %zu\nbuilding dataset...\n\n",
                study.schedule().size());
    const auto data = study.build();

    const core::subspace_options sopts{.normal_dims = 10};
    const auto entropy = core::detect_entropy_anomalies(data, sopts, args.alpha);
    const auto volume = core::detect_volume_anomalies(data, sopts, args.alpha);

    quadrants("(a) residual entropy vs residual bytes", volume.bytes.spe,
              volume.bytes.threshold, entropy.rows.spe, entropy.rows.threshold);
    quadrants("(b) residual entropy vs residual packets", volume.packets.spe,
              volume.packets.threshold, entropy.rows.spe,
              entropy.rows.threshold);

    // Print the scatter series itself (every 8th bin plus all detections)
    // so the figure can be re-plotted from this output.
    std::printf("scatter series (bin, ||b~||^2, ||p~||^2, ||h~||^2):\n");
    for (std::size_t b = 0; b < bins; ++b) {
        const bool det = entropy.rows.spe[b] > entropy.rows.threshold ||
                         volume.bytes.spe[b] > volume.bytes.threshold ||
                         volume.packets.spe[b] > volume.packets.threshold;
        if (!det && b % 8 != 0) continue;
        std::printf("  %5zu %12.5g %12.5g %12.5g%s\n", b, volume.bytes.spe[b],
                    volume.packets.spe[b], entropy.rows.spe[b],
                    det ? " *" : "");
    }
    return 0;
}
