// stream_daemon — a collector daemon over stored flow exports: stream
// a flow codec spool through the sharded bin-synchronous pipeline into
// the online detector, and report every stage's operational counters.
//
//   SPOOL -> decode + resolve thread -> bounded queue -> od shards
//         -> per-bin entropy -> online detector
//
// Usage: stream_daemon SPOOL [--topology=abilene|geant] [--shards=N]
//          [--checkpoint-dir=DIR] [--checkpoint-every-bins=N]
//          [--checkpoint-keep=N] [--checkpoint-keep-hours=H] [--resume]
//          [--on-corrupt=fail-fast|quarantine]
//          [--supervise] [--max-restarts=N] [--watchdog-secs=N]
//          [--drift-relearn-bins=N]
//          [--events=FILE] [--events-tcp=HOST:PORT]
//          [--metrics-port=N] [--serve-secs=N]
//
// Input: SPOOL is a codec file (stream/flow_codec.h) of sampled,
// anonymized flow records, for example the spool.tfc that
// `perfbench gen --workload abilene_week --seed 1 --bins 12 --out DIR`
// writes. --topology names the network its records resolve against
// (default abilene). /dev/stdin reads a pipe, but not with --resume: a
// pipe cannot be read again from its start. A spool that cannot be
// opened, or does not start with a codec header, is a configuration
// error (exit 2). The detector runs with short demo settings: window 8,
// warmup 4, a refit every 4 bins, 2 normal dimensions.
//
// Observability (tfd::obs): every bin close, anomaly, checkpoint save/
// restore, quarantine fold, time-base reset and backpressure stall is
// a typed event. --events=FILE appends them as schema-versioned JSONL,
// numbered on from the seq of the file's last line, so the log stays
// monotone across restarts; --events-tcp=HOST:PORT streams the same
// lines to a TCP peer (peer loss is survived: lines are
// dropped-and-counted and the connection retried on a bin-paced
// cooldown). The most recent 256 are always retained in memory.
// --drift-relearn-bins=N arms the detector's drift monitor: a
// confirmed distribution shift triggers an N-bin degraded re-learn
// window, then an exact refit + threshold re-estimation
// (drift/recalibrated events, tfd_detector_state). --metrics-port=N
// serves, on 127.0.0.1 only: /metrics (Prometheus text: adopted
// pipeline counters, derived gauges, per-stage latency histograms),
// /healthz, /alerts (severity-graded, per-OD deduped anomaly state)
// and /events/recent (the retained JSONL). N=0 picks an ephemeral port
// (printed). --serve-secs=S keeps the endpoint alive S seconds after
// the drain so external scrapers can collect a finished run. stdout
// carries only a thin summary — the event stream is the full record.
//
// Checkpointing: with --checkpoint-dir the daemon snapshots its full
// pipeline state (open-bin histograms, detector window + model, cursor,
// counters) to DIR/checkpoint-NNNNNN.tfss every N closed bins (atomic
// write-to-temp + rename, bounded retry on transient failures).
// --checkpoint-keep=N deletes all but the newest N snapshots after each
// successful write. With --resume it restores the newest *valid*
// snapshot first — corrupt or truncated candidates are skipped with a
// report — skips the already-consumed prefix of the spool
// (metrics().records_in is the exact drained position), pushes the rest
// of the frame the checkpoint cut, and drains the remainder through the
// same run() as a cold start. A restarted daemon continues mid-trace
// with no warmup gap and detections bit-identical to an uninterrupted
// run. The bins after the restored checkpoint are emitted again under
// new sequence numbers: event delivery is at-least-once.
//
// Degraded feeds: --on-corrupt=quarantine skips corrupt spool frames
// (counted, resynced) instead of aborting.
//
// Supervision: --supervise forks the worker and restarts it from the
// last good checkpoint when it crashes or its bin progress stalls past
// --watchdog-secs, up to --max-restarts times.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "obs/alert.h"
#include "obs/bridge.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"

using namespace tfd;

namespace {

struct daemon_config {
    std::string spool;
    std::string topology = "abilene";
    std::size_t shards = 0;
    std::string checkpoint_dir;
    std::size_t checkpoint_every = 8;
    std::size_t checkpoint_keep = 0;
    double checkpoint_keep_hours = 0.0;
    bool resume = false;
    stream::corrupt_policy on_corrupt = stream::corrupt_policy::fail_fast;
    bool supervise = false;
    std::size_t max_restarts = 3;
    std::size_t watchdog_secs = 30;
    std::string events_path;   ///< JSONL event file (empty = none)
    std::string events_tcp;    ///< HOST:PORT event peer (empty = none)
    std::size_t drift_relearn_bins = 0;  ///< 0 = drift monitor off
    int metrics_port = -1;     ///< -1 disabled, 0 ephemeral, else fixed
    std::size_t serve_secs = 0;  ///< keep the endpoint up after the drain
};

std::string progress_path(const daemon_config& cfg) {
    return (std::filesystem::path(cfg.checkpoint_dir) / "progress").string();
}

/// One worker run: open the spool, restore the newest valid checkpoint
/// when resuming, stream, report. `attempt` > 0 means the supervisor
/// restarted us: resume is implied.
int run_worker(const daemon_config& cfg, std::size_t attempt) {
    const auto topo = cfg.topology == "geant" ? net::topology::geant()
                                              : net::topology::abilene();
    std::printf("stream_daemon%s: %s over the %s topology (%d PoPs)\n\n",
                attempt > 0 ? " [restarted worker]" : "", cfg.spool.c_str(),
                cfg.topology.c_str(), topo.pop_count());

    // A spool that cannot be opened, or is not a codec stream, is a
    // configuration error: exit 2, which the supervisor never retries.
    std::ifstream spool(cfg.spool, std::ios::binary);
    if (!spool) {
        std::fprintf(stderr, "stream_daemon: cannot open spool %s\n",
                     cfg.spool.c_str());
        return 2;
    }
    stream::codec_read_options ropts;
    ropts.on_corrupt = cfg.on_corrupt;
    std::optional<stream::flow_codec_reader> reader;
    try {
        reader.emplace(spool, ropts);
    } catch (const stream::codec_error& e) {
        std::fprintf(stderr, "stream_daemon: %s is not a codec spool: %s\n",
                     cfg.spool.c_str(), e.what());
        return 2;
    }

    // --- observability surface ------------------------------------------
    // Always on: the registry, per-stage timers, alert manager and the
    // in-memory recent-events ring cost nothing measurable without a
    // scraper attached; the file sink and HTTP endpoint are opt-in.
    obs::metrics_registry registry;
    obs::stage_timers timers = obs::register_stage_timers(registry);
    obs::alert_manager alerts;
    obs::ring_sink recent_events(256);
    obs::tee_sink event_tee;
    event_tee.add(&recent_events);
    std::optional<obs::file_sink> event_file;
    std::uint64_t first_seq = 1;
    if (!cfg.events_path.empty()) {
        first_seq = obs::next_event_seq(cfg.events_path);
        try {
            event_file.emplace(cfg.events_path);
        } catch (const std::system_error& e) {
            std::fprintf(stderr, "stream_daemon: cannot open --events file "
                         "%s: %s\n",
                         cfg.events_path.c_str(), e.what());
            return 2;
        }
        event_tee.add(&*event_file);
    }
    std::optional<obs::tcp_sink> event_tcp;
    if (!cfg.events_tcp.empty()) {
        const std::size_t colon = cfg.events_tcp.rfind(':');
        const std::string host = cfg.events_tcp.substr(0, colon);
        const int port = std::atoi(cfg.events_tcp.c_str() + colon + 1);
        try {
            event_tcp.emplace(host, static_cast<std::uint16_t>(port));
        } catch (const std::system_error& e) {
            std::fprintf(stderr, "stream_daemon: --events-tcp: %s\n",
                         e.what());
            return 2;
        }
        event_tee.add(&*event_tcp);
    }

    // --- stream the spool through the pipeline --------------------------
    stream::pipeline_options popts;
    popts.shards = cfg.shards;
    popts.queue_frames = 4;
    // A short demo run: small window, score as soon as the model exists.
    popts.online.window = 8;
    popts.online.warmup = 4;
    popts.online.refit_interval = 4;
    popts.online.subspace.normal_dims = 2;
    popts.online.refit_timer = timers.refit;
    if (cfg.drift_relearn_bins > 0) {
        popts.online.recalibration.enabled = true;
        popts.online.recalibration.relearn_bins = cfg.drift_relearn_bins;
        // The re-learn window refits from the newest relearn_bins rows,
        // so the detector window must hold at least that many.
        if (popts.online.window < cfg.drift_relearn_bins)
            popts.online.window = cfg.drift_relearn_bins;
    }
    popts.timers = &timers;

    stream::stream_pipeline pipeline(topo, popts);

    obs::bridge_options bopts;
    bopts.sink = &event_tee;
    bopts.registry = &registry;
    bopts.alerts = &alerts;
    bopts.topology = &topo;
    bopts.first_seq = first_seq;
    obs::pipeline_bridge bridge(pipeline, bopts);

    // --- checkpoint/restore wiring --------------------------------------
    std::optional<stream::periodic_checkpointer> checkpointer;
    if (!cfg.checkpoint_dir.empty()) {
        std::filesystem::create_directories(cfg.checkpoint_dir);
        stream::checkpoint_options copts;
        copts.save_timer = timers.checkpoint_write;
        copts.keep_hours = cfg.checkpoint_keep_hours;
        checkpointer.emplace(pipeline, cfg.checkpoint_dir,
                             cfg.checkpoint_every, cfg.checkpoint_keep,
                             copts);
        bridge.wire_checkpointer(*checkpointer);
        if (cfg.resume || attempt > 0) {
            const auto report =
                stream::restore_latest_checkpoint(pipeline, cfg.checkpoint_dir);
            bridge.emit_checkpoint_restored(report);
            if (!report.restored_path.empty()) {
                std::printf("resume: restored %s at bin cursor %" PRIu64
                            " — skipping %" PRIu64
                            " already-consumed records\n",
                            report.restored_path.c_str(),
                            pipeline.metrics().bins_emitted,
                            pipeline.metrics().records_in);
            } else {
                std::printf("resume: no valid checkpoint in %s — cold "
                            "start\n",
                            cfg.checkpoint_dir.c_str());
            }
            if (report.corrupt_skipped + report.truncated_skipped +
                    report.mismatched_skipped + report.io_failed_skipped >
                0)
                std::printf("resume: scanned %zu candidates (skipped: %zu "
                            "corrupt, %zu truncated, %zu mismatched, %zu "
                            "unreadable)\n",
                            report.candidates, report.corrupt_skipped,
                            report.truncated_skipped, report.mismatched_skipped,
                            report.io_failed_skipped);
            std::printf("\n");
        }
    }

    // --- exposition endpoint --------------------------------------------
    std::optional<obs::http_server> http;
    if (cfg.metrics_port >= 0) {
        obs::http_options hopts;
        hopts.port = static_cast<std::uint16_t>(cfg.metrics_port);
        hopts.registry = &registry;
        hopts.alerts = &alerts;
        hopts.recent_events = &recent_events;
        hopts.healthz = [&bridge] { return bridge.healthz_json(); };
        try {
            http.emplace(std::move(hopts));
        } catch (const std::system_error& e) {
            std::fprintf(stderr, "stream_daemon: %s\n", e.what());
            return 2;
        }
        std::printf("metrics: serving /metrics /healthz /alerts "
                    "/events/recent on 127.0.0.1:%u\n\n",
                    static_cast<unsigned>(http->port()));
        // Scrapers read the ephemeral port from this line while the
        // spool drains, so it must not wait in a block-buffered stdout.
        std::fflush(stdout);
    }

    pipeline.on_bin([&](const stream::bin_result& r) {
        // The bin_closed / anomaly events (bridge) are the full record;
        // stdout keeps a one-line note per anomaly only.
        bridge.observe_bin(r);
        if (r.verdict.scored && r.verdict.anomalous) {
            const auto [o, d] = topo.od_pair(r.verdict.top_od);
            std::printf("bin %3zu: ANOMALY spe=%.3g > %.3g, top OD %s->%s\n",
                        r.stats.bin, r.verdict.spe, r.verdict.threshold,
                        topo.pop_at(o).name.c_str(),
                        topo.pop_at(d).name.c_str());
        }
        if (checkpointer) checkpointer->on_bin_emitted();
        if (cfg.supervise) {
            // Bin-progress heartbeat for the supervisor's watchdog.
            std::ofstream(progress_path(cfg), std::ios::trunc)
                << pipeline.metrics().bins_emitted;
        }
    });

    std::size_t frames = 0;
    try {
        // A resume skips exactly the records the checkpoint consumed
        // (records_in counts surviving records, and the reader
        // quarantines the same corrupt frames again), pushes the rest of
        // the frame the cut falls in, and drains the remainder through
        // run() like a cold start, whose skip is 0.
        std::uint64_t skip = pipeline.metrics().records_in;
        std::vector<flow::flow_record> frame;
        while (skip > 0 && reader->next_frame(frame)) {
            const auto n = static_cast<std::size_t>(
                std::min<std::uint64_t>(skip, frame.size()));
            skip -= n;
            if (n < frame.size())
                pipeline.push(
                    std::span<const flow::flow_record>(frame).subspan(n));
        }
        if (skip > 0) {
            // The checkpoint is ahead of this spool: a silent "ran to
            // completion with zero new bins" would mask a workload
            // mismatch (the spool is not config-fingerprinted).
            std::fprintf(stderr,
                         "stream_daemon: checkpoint is %" PRIu64
                         " records ahead of %s — a checkpoint of another "
                         "spool?\n",
                         skip, cfg.spool.c_str());
            return 2;
        }
        frames = pipeline.run(*reader);
    } catch (const stream::codec_error& e) {
        // fail_fast (or an exhausted quarantine error budget): a daemon
        // reports the typed cause and exits nonzero instead of
        // std::terminate-ing through an unhandled exception.
        std::fprintf(stderr, "stream_daemon: ingest aborted: %s\n", e.what());
        return 3;
    } catch (const io::snapshot_error& e) {
        std::fprintf(stderr, "stream_daemon: checkpoint write failed: %s\n",
                     e.what());
        return 3;
    }

    // Expose the post-drain state (quarantine folds, late drops past the
    // last bin close) before the summary and any late scrapes.
    bridge.sync_metrics();

    const auto& m = pipeline.metrics();
    std::printf("\npipeline: %zu frames consumed, %" PRIu64
                " backpressure stalls\n",
                frames, pipeline.last_run_blocked_pushes());
    std::printf("  records in/accumulated : %" PRIu64 " / %" PRIu64 "\n",
                m.records_in, m.records_accumulated);
    std::printf("  resolver drops         : %zu unknown ingress, %zu "
                "unresolvable egress\n",
                m.resolver_drops.unknown_ingress,
                m.resolver_drops.unresolvable_egress);
    std::printf("  late drops             : %" PRIu64 "\n", m.late_records);
    if (m.records_dropped_bad_od > 0)
        std::printf("  bad-OD drops           : %" PRIu64 "\n",
                    m.records_dropped_bad_od);
    std::printf("  bins emitted           : %" PRIu64 " (%" PRIu64
                " empty, %" PRIu64 " anomalous)\n",
                m.bins_emitted, m.empty_bins, m.anomalies);
    if (m.frames_quarantined > 0 || cfg.on_corrupt ==
                                        stream::corrupt_policy::quarantine)
        std::printf("  quarantine             : %" PRIu64
                    " frames skipped, %" PRIu64 " records lost, %" PRIu64
                    " resync bytes\n",
                    m.frames_quarantined, m.records_lost_corrupt,
                    m.resync_bytes_skipped);
    if (checkpointer) {
        const auto& s = checkpointer->save_stats();
        std::printf("  checkpoints            : %zu written, %" PRIu64
                    " retries, %" PRIu64 " failed\n",
                    checkpointer->checkpoints_written(), s.save_retries,
                    s.saves_failed);
    }
    std::printf("  ingest throughput      : %.0f records/s\n",
                m.records_per_second());
    std::printf("  bin close latency      : %.2f ms mean, %.2f ms max\n",
                m.mean_bin_close_ms(),
                static_cast<double>(m.max_bin_close_ns) / 1e6);
    std::printf("  events emitted         : %" PRIu64 " (%" PRIu64
                " alerts, %" PRIu64 " suppressed)%s%s\n",
                bridge.emitter().emitted(), alerts.alerts_total(),
                alerts.suppressed_total(),
                cfg.events_path.empty() ? "" : " -> ",
                cfg.events_path.c_str());
    if (event_tcp)
        std::printf("  events tcp peer        : %" PRIu64 " dropped, %" PRIu64
                    " reconnects%s\n",
                    event_tcp->dropped(), event_tcp->reconnects(),
                    event_tcp->connected() ? "" : " (disconnected)");
    if (cfg.drift_relearn_bins > 0) {
        const auto& det = pipeline.detector();
        std::printf("  detector state         : %s\n",
                    det.state() == core::detector_state::degraded
                        ? "degraded (re-learning)"
                        : "normal");
    }

    if (http && cfg.serve_secs > 0) {
        std::printf("\nmetrics: endpoint stays up %zus for scrapers "
                    "(--serve-secs)\n",
                    cfg.serve_secs);
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::seconds(cfg.serve_secs));
    }
    return 0;
}

/// Fork-based supervisor: run the worker as a child, restart it from
/// the last good checkpoint on crash or on a stalled bin-progress
/// heartbeat, up to cfg.max_restarts restarts. Forks BEFORE the worker
/// constructs any pipeline threads, so the child never inherits a
/// half-alive thread state.
int run_supervised(const daemon_config& cfg) {
    namespace fs = std::filesystem;
    fs::create_directories(cfg.checkpoint_dir);
    for (std::size_t attempt = 0;; ++attempt) {
        std::error_code ec;
        fs::remove(progress_path(cfg), ec);  // stale heartbeat
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("stream_daemon: fork");
            return 1;
        }
        if (pid == 0) {
            const int rc = run_worker(cfg, attempt);
            // _exit (not exit): never run the parent's atexit state in
            // the child — but flush what the worker printed first.
            std::fflush(stdout);
            std::fflush(stderr);
            _exit(rc);
        }

        // Watchdog: a worker that stops emitting bins (hung queue,
        // livelock) is as dead as a crashed one. The heartbeat is the
        // progress file the worker rewrites after every bin.
        using clock = std::chrono::steady_clock;
        auto last_beat = clock::now();
        std::string last_progress;
        bool watchdog_killed = false;
        int status = 0;
        for (;;) {
            const pid_t done = waitpid(pid, &status, WNOHANG);
            if (done == pid) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            std::ifstream beat(progress_path(cfg));
            std::string progress((std::istreambuf_iterator<char>(beat)),
                                 std::istreambuf_iterator<char>());
            if (progress != last_progress) {
                last_progress = std::move(progress);
                last_beat = clock::now();
            } else if (cfg.watchdog_secs > 0 &&
                       clock::now() - last_beat >
                           std::chrono::seconds(cfg.watchdog_secs)) {
                std::fprintf(stderr,
                             "supervisor: no bin progress for %zus — "
                             "killing worker %d\n",
                             cfg.watchdog_secs, static_cast<int>(pid));
                kill(pid, SIGKILL);
                watchdog_killed = true;
                waitpid(pid, &status, 0);
                break;
            }
        }

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return 0;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 2)
            return 2;  // configuration error: retrying cannot help
        if (watchdog_killed)
            std::fprintf(stderr, "supervisor: worker stalled\n");
        else if (WIFSIGNALED(status))
            std::fprintf(stderr, "supervisor: worker killed by signal %d\n",
                         WTERMSIG(status));
        else
            std::fprintf(stderr, "supervisor: worker exited with code %d\n",
                         WEXITSTATUS(status));
        if (attempt >= cfg.max_restarts) {
            std::fprintf(stderr,
                         "supervisor: restart budget exhausted (%zu) — "
                         "giving up\n",
                         cfg.max_restarts);
            return 1;
        }
        std::fprintf(stderr,
                     "supervisor: restarting from last good checkpoint "
                     "(attempt %zu of %zu)\n",
                     attempt + 1, cfg.max_restarts);
    }
}

bool parse_size(const char* v, std::size_t& out) {
    char* end = nullptr;
    out = std::strtoull(v, &end, 10);
    return end != v && *end == '\0';
}

[[noreturn]] void usage_error(const std::string& detail) {
    std::fprintf(
        stderr,
        "stream_daemon: %s\n"
        "usage: stream_daemon SPOOL [--topology=abilene|geant] [--shards=N]\n"
        "  [--checkpoint-dir=DIR] [--checkpoint-every-bins=N]\n"
        "  [--checkpoint-keep=N] [--checkpoint-keep-hours=H] [--resume]\n"
        "  [--on-corrupt=fail-fast|quarantine]\n"
        "  [--supervise] [--max-restarts=N] [--watchdog-secs=N]\n"
        "  [--drift-relearn-bins=N]\n"
        "  [--events=FILE] [--events-tcp=HOST:PORT]\n"
        "  [--metrics-port=N] [--serve-secs=N]\n"
        "SPOOL is a flow codec file, e.g. the spool.tfc of `perfbench gen`\n",
        detail.c_str());
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    daemon_config cfg;
    const auto value_of = [](const std::string& arg, const char* flag,
                             const char** out) {
        const std::size_t n = std::strlen(flag);
        if (arg.compare(0, n, flag) != 0) return false;
        *out = arg.c_str() + n;
        return true;
    };
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        const char* v = nullptr;
        if (value_of(arg, "--topology=", &v)) {
            if (std::strcmp(v, "abilene") != 0 && std::strcmp(v, "geant") != 0)
                usage_error("--topology expects abilene or geant");
            cfg.topology = v;
        } else if (value_of(arg, "--shards=", &v)) {
            if (!parse_size(v, cfg.shards))
                usage_error("--shards expects a number (0 = pool size)");
        } else if (value_of(arg, "--checkpoint-dir=", &v)) {
            cfg.checkpoint_dir = v;
        } else if (value_of(arg, "--checkpoint-every-bins=", &v)) {
            if (!parse_size(v, cfg.checkpoint_every))
                usage_error("--checkpoint-every-bins expects a number");
        } else if (value_of(arg, "--checkpoint-keep=", &v)) {
            if (!parse_size(v, cfg.checkpoint_keep))
                usage_error("--checkpoint-keep expects a number");
        } else if (value_of(arg, "--checkpoint-keep-hours=", &v)) {
            char* end = nullptr;
            cfg.checkpoint_keep_hours = std::strtod(v, &end);
            if (end == v || *end != '\0' || cfg.checkpoint_keep_hours < 0.0)
                usage_error("--checkpoint-keep-hours expects hours >= 0");
        } else if (arg == "--resume") {
            cfg.resume = true;
        } else if (value_of(arg, "--on-corrupt=", &v)) {
            if (std::strcmp(v, "fail-fast") == 0)
                cfg.on_corrupt = stream::corrupt_policy::fail_fast;
            else if (std::strcmp(v, "quarantine") == 0)
                cfg.on_corrupt = stream::corrupt_policy::quarantine;
            else
                usage_error("--on-corrupt expects fail-fast or quarantine");
        } else if (arg == "--supervise") {
            cfg.supervise = true;
        } else if (value_of(arg, "--max-restarts=", &v)) {
            if (!parse_size(v, cfg.max_restarts))
                usage_error("--max-restarts expects a number");
        } else if (value_of(arg, "--watchdog-secs=", &v)) {
            if (!parse_size(v, cfg.watchdog_secs))
                usage_error("--watchdog-secs expects a number");
        } else if (value_of(arg, "--events=", &v)) {
            if (*v == '\0') usage_error("--events expects a file path");
            cfg.events_path = v;
        } else if (value_of(arg, "--events-tcp=", &v)) {
            const char* colon = std::strrchr(v, ':');
            if (colon == nullptr || colon == v || *(colon + 1) == '\0')
                usage_error("--events-tcp expects HOST:PORT");
            cfg.events_tcp = v;
        } else if (value_of(arg, "--drift-relearn-bins=", &v)) {
            if (!parse_size(v, cfg.drift_relearn_bins) ||
                cfg.drift_relearn_bins < 2)
                usage_error("--drift-relearn-bins expects a count >= 2");
        } else if (value_of(arg, "--metrics-port=", &v)) {
            std::size_t port;
            if (!parse_size(v, port) || port > 65535)
                usage_error("--metrics-port expects a port (0 = ephemeral)");
            cfg.metrics_port = static_cast<int>(port);
        } else if (value_of(arg, "--serve-secs=", &v)) {
            if (!parse_size(v, cfg.serve_secs))
                usage_error("--serve-secs expects a number");
        } else if (arg.rfind("--", 0) == 0 || !cfg.spool.empty()) {
            // A typo'd or space-separated flag must not be silently
            // swallowed as the spool path (that would read the wrong
            // input instead of failing).
            usage_error("unrecognized argument '" + arg + "'");
        } else {
            cfg.spool = arg;
        }
    }
    if (cfg.spool.empty()) usage_error("missing SPOOL");
    if (cfg.resume && cfg.checkpoint_dir.empty())
        usage_error("--resume requires --checkpoint-dir");
    if (cfg.supervise && cfg.checkpoint_dir.empty())
        usage_error("--supervise requires --checkpoint-dir (restart "
                    "without durable progress is just a retry loop)");
    if (cfg.serve_secs > 0 && cfg.metrics_port < 0)
        usage_error("--serve-secs requires --metrics-port");

    return cfg.supervise ? run_supervised(cfg) : run_worker(cfg, 0);
}
