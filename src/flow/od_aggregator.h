// tfd::flow — OD-flow aggregation and time binning.
//
// "The traffic in an origin-destination pair consists of IP-level flows
// that enter the network at a given ingress PoP and exit at another
// egress PoP. ... This egress PoP resolution is accomplished by using BGP
// and ISIS routing tables" (Section 5). Here the ingress PoP comes from
// the capture location stamped on each record and the egress PoP from
// longest-prefix match on the destination address.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flow/flow_record.h"
#include "net/topology.h"

namespace tfd::flow {

/// Duration of one timeseries bin; both networks report flow statistics
/// every 5 minutes.
inline constexpr std::uint64_t default_bin_us = 5ull * 60 * 1000 * 1000;

/// Bin index for a timestamp.
constexpr std::size_t bin_index(std::uint64_t time_us,
                                std::uint64_t bin_us = default_bin_us) {
    return static_cast<std::size_t>(time_us / bin_us);
}

/// Why a record could not be attributed to an OD flow.
enum class resolve_failure {
    none = 0,
    unknown_ingress,      ///< no (or out-of-range) ingress PoP stamped
    unresolvable_egress,  ///< destination outside every PoP prefix
};

/// The code od_resolver::resolve_batch writes for a record it could not
/// attribute: the negated reason, so -1 is an unknown ingress and -2 an
/// unresolvable egress. Every OD index is >= 0.
constexpr int drop_code(resolve_failure why) noexcept {
    return -static_cast<int>(why);
}

/// Per-reason tallies of records dropped during OD attribution. Real
/// exports contain both kinds, and they point at different operational
/// problems (broken capture metadata vs. off-net destinations), so they
/// are counted separately.
struct drop_counts {
    std::size_t unknown_ingress = 0;
    std::size_t unresolvable_egress = 0;

    std::size_t total() const noexcept {
        return unknown_ingress + unresolvable_egress;
    }
    /// Tally one failure (resolve_failure::none is ignored).
    void count(resolve_failure why) noexcept {
        if (why == resolve_failure::unknown_ingress) ++unknown_ingress;
        else if (why == resolve_failure::unresolvable_egress)
            ++unresolvable_egress;
    }
    /// Tally the reason codes in a resolve_batch output (entries >= 0
    /// are resolved records and count nothing).
    void count_codes(std::span<const int> ods) noexcept {
        for (const int od : ods) {
            unknown_ingress +=
                od == drop_code(resolve_failure::unknown_ingress);
            unresolvable_egress +=
                od == drop_code(resolve_failure::unresolvable_egress);
        }
    }
    drop_counts& operator+=(const drop_counts& o) noexcept {
        unknown_ingress += o.unknown_ingress;
        unresolvable_egress += o.unresolvable_egress;
        return *this;
    }
};

/// Resolves flow records to OD-flow indices using the topology's egress
/// table. Records with unknown ingress or unresolvable egress are counted
/// and skipped (real exports contain such flows too).
class od_resolver {
public:
    explicit od_resolver(const net::topology& topo) : topo_(&topo) {}

    /// OD index for a record, or std::nullopt if unresolvable. If `why`
    /// is non-null it receives the failure reason (resolve_failure::none
    /// on success).
    std::optional<int> resolve(const flow_record& r,
                               resolve_failure* why = nullptr) const noexcept;

    /// Batch resolve for the shard layer: sizes `out` to
    /// `records.size()` and writes each record's OD index, or for a
    /// record it cannot attribute the reason's drop_code (-1 unknown
    /// ingress, -2 unresolvable egress), so one pass over `out` with
    /// drop_counts::count_codes recovers the per-reason tallies of any
    /// sub-range. Per-reason tallies of the whole batch are also
    /// accumulated into `dropped` if non-null. Returns the number of
    /// resolved records. Const and reads only the topology, so threads
    /// may share one resolver.
    std::size_t resolve_batch(std::span<const flow_record> records,
                              std::vector<int>& out,
                              drop_counts* dropped = nullptr) const;

    const net::topology& topo() const noexcept { return *topo_; }

private:
    const net::topology* topo_;
};

/// A flow record attributed to an OD flow and a timebin.
struct binned_record {
    std::size_t bin = 0;
    int od = 0;
    flow_record record;
};

/// Attribute a batch of records to (bin, OD); unresolvable records are
/// dropped, with per-reason tallies accumulated into `dropped` if
/// non-null.
std::vector<binned_record> bin_records(const od_resolver& resolver,
                                       std::span<const flow_record> records,
                                       std::uint64_t bin_us = default_bin_us,
                                       drop_counts* dropped = nullptr);

}  // namespace tfd::flow
