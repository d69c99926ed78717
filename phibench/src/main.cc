/**
 * @file
 * phibench: the end-to-end serving benchmark.
 *
 *   phibench --workload NAME --seed N --seconds S --trace 0|1
 *            [--baseline-rate R] [--out-dir DIR] [--inject-fault]
 *
 * Workloads (closed loop, inputs generated here from --seed):
 *   vgg16_clustered    VGG16/CIFAR100 forward passes through
 *                      AsyncPhiEngine, traffic from the calibrated
 *                      clustered distribution;
 *   vgg16_unclustered  the same compiled model serving iid Bernoulli
 *                      activations at the same bit density;
 *   sessions_wire      stateful LIF sessions over TCP loopback through
 *                      PhiServer, SessionManager and PhiClient.
 *
 * The last stdout line is one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. A traced run needs --baseline-rate, the
 * served_per_s of the untraced run of the same workload, seed and
 * length: its tracing overhead is its own rate against that one.
 * Exit status is 0 only when every output check passed.
 */

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common.hh"
#include "common/isa.hh"
#include "numeric/simd.hh"
#include "workloads.hh"

namespace
{

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "phibench: %s\nusage: phibench --workload "
                 "vgg16_clustered|vgg16_unclustered|sessions_wire "
                 "--seed N --seconds S --trace 0|1 [--baseline-rate R] "
                 "[--out-dir DIR] [--inject-fault]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    phibench::markProcessStart();
    using namespace phibench;

#ifndef NDEBUG
    std::fprintf(stderr, "phibench: refusing to measure a non-Release "
                         "build (NDEBUG is not defined)\n");
    return 2;
#endif

    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                return {};
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
                haveWorkload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                opt.trace = value() == "1";
            } else if (arg == "--baseline-rate") {
                opt.baselineRate = std::stod(value());
            } else if (arg == "--out-dir") {
                opt.outDir = value();
            } else if (arg == "--inject-fault") {
                opt.injectFault = true;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");
    if (opt.workload != "vgg16_clustered" &&
        opt.workload != "vgg16_unclustered" && opt.workload != "sessions_wire")
        return usage(("unknown workload " + opt.workload).c_str());
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");
    if (opt.trace && !(opt.baselineRate > 0))
        return usage("--trace 1 needs --baseline-rate R, the served_per_s "
                     "of the untraced run");

    const size_t cpus = hostCpus();
    std::printf("host: nproc=%zu simd=%s build=%s workload=%s seed=%llu "
                "seconds=%g trace=%d\n",
                cpus, phi::simdIsaName(phi::simd::activeIsa()),
                PHIBENCH_BUILD_TYPE, opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "phibench: cannot create %s: %s\n",
                     opt.outDir.c_str(), ec.message().c_str());
        return 1;
    }

    Report report;
    try {
        if (opt.workload == "vgg16_clustered")
            runVgg(opt, /*clustered=*/true, report);
        else if (opt.workload == "vgg16_unclustered")
            runVgg(opt, /*clustered=*/false, report);
        else
            runSessions(opt, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "phibench: run aborted: %s\n", e.what());
        return 1;
    }

    // Report exactly the metric set this mode promises, in its order.
    const auto& expected = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::map<std::string, Metric> byName;
    for (const Metric& m : report.metrics)
        byName[m.name] = m;
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : expected) {
        auto it = byName.find(name);
        if (it == byName.end() || it->second.unit != unit) {
            std::fprintf(stderr, "phibench: internal error: metric %s "
                                 "missing or mis-united\n",
                         name.c_str());
            return 1;
        }
        ordered.push_back(it->second);
    }
    report.metrics = ordered;
    if (report.attempted == 0)
        report.fail("no operation was attempted");

    for (const std::string& p : report.problems)
        std::fprintf(stderr, "phibench: CHECK FAILED: %s\n", p.c_str());
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
