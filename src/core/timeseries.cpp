#include "core/timeseries.h"

#include <stdexcept>

#include "linalg/parallel.h"

namespace tfd::core {

od_dataset build_od_dataset(std::size_t bins, int flows,
                            const cell_source& source) {
    if (bins == 0) throw std::invalid_argument("build_od_dataset: bins == 0");
    if (flows <= 0) throw std::invalid_argument("build_od_dataset: flows <= 0");
    if (!source) throw std::invalid_argument("build_od_dataset: null source");

    od_dataset d;
    const auto p = static_cast<std::size_t>(flows);
    d.bytes.resize(bins, p);
    d.packets.resize(bins, p);
    for (auto& m : d.entropy) m.resize(bins, p);

    linalg::thread_pool::shared().run(bins, [&](std::size_t bin) {
        feature_histogram_set hists;
        for (int od = 0; od < flows; ++od) {
            hists.clear();
            hists.add_records(source(bin, od));
            d.bytes(bin, od) = static_cast<double>(hists.total_bytes());
            d.packets(bin, od) = static_cast<double>(hists.total_packets());
            const auto h = hists.entropies();
            for (int f = 0; f < flow::feature_count; ++f)
                d.entropy[f](bin, od) = h[f];
        }
    });
    return d;
}

std::vector<double> entropy_series(const od_dataset& d, flow::feature f,
                                   int od) {
    return d.entropy[static_cast<int>(f)].col(static_cast<std::size_t>(od));
}

}  // namespace tfd::core
