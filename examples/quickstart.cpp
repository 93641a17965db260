// quickstart — the smallest end-to-end use of the tfd library.
//
// Builds a day of synthetic Abilene traffic, plants one low-volume port
// scan, runs the multiway subspace method, and prints what was detected,
// which OD flow was identified, and the anomaly's position in entropy
// space.
//
// Usage: quickstart [seed]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "core/detector.h"
#include "net/topology.h"
#include "traffic/anomaly.h"
#include "traffic/background.h"

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
    std::printf("tfd quickstart (seed %" PRIu64 ")\n\n", seed);

    // 1. The network: Abilene, 11 PoPs, 121 OD flows.
    const auto topo = tfd::net::topology::abilene();
    std::printf("network: %s, %d PoPs, %d OD flows\n", topo.name().c_str(),
                topo.pop_count(), topo.od_count());

    // 2. Background traffic with diurnal structure.
    tfd::traffic::background_options bg_opts;
    bg_opts.seed = seed;
    tfd::traffic::background_model bg(topo, bg_opts);

    // 3. Plant a port scan: ~1 packet/second for one 5-minute bin, from
    //    Sunnyvale to Chicago. Far too small to move volume curves.
    const int scan_od = topo.od_index(*topo.pop_by_name("SNVA"),
                                      *topo.pop_by_name("CHIN"));
    const std::size_t scan_bin = 400;
    const std::size_t bins = 576;  // two days of 5-minute bins

    tfd::core::cell_source source = [&](std::size_t bin, int od) {
        auto records = bg.generate(bin, od);
        if (bin == scan_bin && od == scan_od) {
            tfd::traffic::anomaly_cell cell;
            cell.type = tfd::traffic::anomaly_type::port_scan;
            cell.od = od;
            cell.bin = bin;
            cell.packets = 300;  // 1 pps over the 5-minute bin
            auto extra = tfd::traffic::generate_anomaly_records(
                topo, cell, tfd::traffic::rng(seed + 7));
            records.insert(records.end(), extra.begin(), extra.end());
        }
        return records;
    };

    // 4. Build the (time x OD) tensor of volume + feature entropies.
    std::printf("building %zu bins x %d flows of traffic...\n", bins,
                topo.od_count());
    const auto data = tfd::core::build_od_dataset(bins, topo.od_count(), source);

    // 5. Detect with the multiway subspace method at 99.9%% confidence.
    const auto det = tfd::core::detect_entropy_anomalies(
        data, {.normal_dims = 10}, 0.999);

    std::printf("\ndetection threshold: %.3g, anomalous bins: %zu\n",
                det.rows.threshold, det.rows.anomalous_bins.size());

    bool found = false;
    for (const auto& ev : det.events) {
        if (ev.bin != scan_bin) continue;
        found = true;
        const auto [origin, dest] = topo.od_pair(ev.top_od);
        std::printf(
            "\n>>> planted scan detected at bin %zu\n"
            "    identified OD flow: %s -> %s (%s)\n"
            "    residual entropy h~ = [srcIP %+.2f, srcPort %+.2f, "
            "dstIP %+.2f, dstPort %+.2f]\n"
            "    reading: dstPort dispersed (+), dstIP concentrated (-) "
            "=> port scan signature\n",
            ev.bin, topo.pop_at(origin).name.c_str(),
            topo.pop_at(dest).name.c_str(),
            ev.top_od == scan_od ? "correct!" : "WRONG flow",
            ev.h_tilde[0], ev.h_tilde[1], ev.h_tilde[2], ev.h_tilde[3]);
    }
    if (!found)
        std::printf("\n(planted scan was not detected at this seed — try "
                    "another seed or a larger scan)\n");
    return found ? 0 : 1;
}
