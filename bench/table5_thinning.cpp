// table5_thinning — reproduces Table 5: the intensity of each injected
// anomaly after thinning by factor N, in pkts/sec and as a percentage of
// OD-flow traffic.
//
// Expected shape (paper): pps divides exactly by the thinning factor;
// the percentage column falls from ~99% (full single-source DOS) down to
// thousandths of a percent. Our percentage uses the simulated OD flows'
// mean sampled rate, so absolute percentages differ from the paper's
// (their OD flows average 2068 pkts/s sampled; the "mean OD flow rate"
// line printed above the table gives ours).
#include <cstdio>

#include "bench/common.h"
#include "traffic/background.h"
#include "traffic/trace.h"

using namespace tfd;
using namespace tfd::bench;
using namespace tfd::diagnosis;
using namespace tfd::traffic;

int main(int argc, char** argv) {
    auto args = bench_args::parse(argc, argv);
    banner("Table 5: intensity of injected anomalies after thinning", args, 1,
           "Abilene");

    // Mean OD rate from a slice of background traffic.
    const auto topo = net::topology::abilene();
    background_model bg(topo);
    double total = 0.0;
    int cells = 0;
    for (std::size_t bin = 0; bin < 48; ++bin)
        for (int od = 0; od < topo.od_count(); od += 7) {
            for (const auto& r : bg.generate(bin, od))
                total += static_cast<double>(r.packets);
            ++cells;
        }
    const double od_pps = total / cells / 300.0;
    std::printf("mean OD flow rate: %.2f sampled pkts/s (paper: 2068)\n\n",
                od_pps);

    trace_options topts;
    topts.seed = args.seed;
    const attack_trace traces[] = {make_single_source_dos_trace(topts),
                                   make_multi_source_ddos_trace(topts),
                                   make_worm_scan_trace(topts)};
    const char* names[] = {"Single DOS", "Multi DOS", "Worm Scan"};

    text_table table({"Thinning", "Single DOS pps", "%", "Multi DOS pps", "%",
                      "Worm pps", "%"});
    const std::uint64_t factors[] = {1, 10, 100, 500, 1000, 10000, 100000};
    for (const auto f : factors) {
        std::vector<std::string> row{f == 1 ? "0" : std::to_string(f)};
        for (int t = 0; t < 3; ++t) {
            // Worm rows beyond 1000 and DOS at 500 are blank in the paper.
            const bool blank = (t == 2 && f > 1000) || (t != 2 && f == 500);
            if (blank) {
                row.push_back("-");
                row.push_back("-");
                continue;
            }
            const double pps = traces[t].packets_per_second() /
                               static_cast<double>(f);
            row.push_back(fmt_sci(pps, 3));
            row.push_back(fmt_percent(pps / (pps + od_pps), 4));
        }
        table.add_row(row);
        (void)names;
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("shape check: pps column divides exactly by the factor; %%\n"
                "column spans ~100%% down to small fractions of OD traffic.\n");
    return 0;
}
