#include "flow/od_aggregator.h"

namespace tfd::flow {

std::optional<int> od_resolver::resolve(const flow_record& r,
                                        resolve_failure* why) const noexcept {
    if (r.ingress_pop < 0 || r.ingress_pop >= topo_->pop_count()) {
        if (why) *why = resolve_failure::unknown_ingress;
        return std::nullopt;
    }
    const auto egress = topo_->egress_pop(r.key.dst);
    if (!egress) {
        if (why) *why = resolve_failure::unresolvable_egress;
        return std::nullopt;
    }
    if (why) *why = resolve_failure::none;
    return topo_->od_index(r.ingress_pop, *egress);
}

std::size_t od_resolver::resolve_batch(std::span<const flow_record> records,
                                       std::vector<int>& out,
                                       drop_counts* dropped) const {
    out.resize(records.size());
    std::size_t resolved = 0;
    resolve_failure why = resolve_failure::none;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto od = resolve(records[i], &why);
        if (od) {
            out[i] = *od;
            ++resolved;
            continue;
        }
        out[i] = drop_code(why);
        if (dropped) dropped->count(why);
    }
    return resolved;
}

std::vector<binned_record> bin_records(const od_resolver& resolver,
                                       std::span<const flow_record> records,
                                       std::uint64_t bin_us,
                                       drop_counts* dropped) {
    std::vector<binned_record> out;
    out.reserve(records.size());
    resolve_failure why = resolve_failure::none;
    for (const flow_record& r : records) {
        const auto od = resolver.resolve(r, &why);
        if (!od) {
            if (dropped) dropped->count(why);
            continue;
        }
        out.push_back(binned_record{bin_index(r.first_us, bin_us), *od, r});
    }
    return out;
}

}  // namespace tfd::flow
