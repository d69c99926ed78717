#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hh"
#include "core/decompose.hh"
#include "core/stats.hh"
#include "numeric/gemm.hh"

namespace phibench
{

namespace
{

Clock::time_point processStart = Clock::now();

double
usSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t)
        .count();
}

} // namespace

void
markProcessStart()
{
    processStart = Clock::now();
}

double
sinceProcessStart()
{
    return secondsBetween(processStart, Clock::now());
}

size_t
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- tracer ---------------------------------------------------------

uint64_t
Tracer::begin(const char* name, uint64_t parent, uint64_t request)
{
    if (!on)
        return 0;
    const double start = usSince(processStart);
    std::lock_guard<std::mutex> lock(mu);
    Record r;
    r.id = records.size() + 1;
    r.parent = parent;
    r.request = request;
    r.name = name;
    r.startUs = start;
    records.push_back(r);
    return r.id;
}

void
Tracer::end(uint64_t id)
{
    if (!on || id == 0)
        return;
    const double stop = usSince(processStart);
    std::lock_guard<std::mutex> lock(mu);
    records[id - 1].endUs = stop;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return records.size();
}

void
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ofstream out(path);
    char line[256];
    for (const Record& r : records) {
        std::snprintf(line, sizeof(line),
                      "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                      "\"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f}\n",
                      static_cast<unsigned long long>(r.id),
                      static_cast<unsigned long long>(r.parent),
                      static_cast<unsigned long long>(r.request), r.name,
                      r.startUs, r.endUs);
        out << line;
    }
}

// ---- report ---------------------------------------------------------

void
Report::fail(const std::string& why)
{
    correct = false;
    if (problems.size() < 8)
        problems.push_back(why);
}

std::string
Report::json() const
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                          : 0.0;
        o << (i ? ", " : "") << "\"" << metrics[i].name
          << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit
          << "\"}";
    }
    o << "}}";
    return o.str();
}

// ---- statistics -----------------------------------------------------

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

void
Timeline::merge(const Timeline& other)
{
    doneS.insert(doneS.end(), other.doneS.begin(), other.doneS.end());
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
}

double
Timeline::sliceMedian(
    const std::function<double(const std::vector<double>&, double)>& stat)
    const
{
    const double sliceS = seconds / kSlices;
    std::vector<std::vector<double>> slices(kSlices);
    for (size_t i = 0; i < ms.size(); ++i) {
        const size_t k = sliceS > 0 ? static_cast<size_t>(doneS[i] / sliceS)
                                    : 0;
        slices[std::min(k, kSlices - 1)].push_back(ms[i]);
    }
    std::vector<double> perSlice;
    for (const auto& slice : slices)
        if (!slice.empty())
            perSlice.push_back(stat(slice, sliceS));
    return percentile(perSlice, 50);
}

// ---- reference product ----------------------------------------------

void
referenceRow(const phi::BinaryMatrix& acts, size_t row,
             const phi::Matrix<int16_t>& w, int32_t* out)
{
    const size_t n = w.cols();
    std::fill(out, out + n, 0);
    const uint64_t* words = acts.rowWords(row);
    for (size_t wi = 0; wi < acts.numWordsPerRow(); ++wi) {
        uint64_t bits = words[wi];
        while (bits) {
            const size_t k = wi * 64 + static_cast<size_t>(
                                           __builtin_ctzll(bits));
            bits &= bits - 1;
            const int16_t* wr = w.rowPtr(k);
            for (size_t c = 0; c < n; ++c)
                out[c] += wr[c];
        }
    }
}

phi::Matrix<int32_t>
referenceProduct(const phi::BinaryMatrix& acts,
                 const phi::Matrix<int16_t>& w)
{
    phi::Matrix<int32_t> out(acts.rows(), w.cols());
    for (size_t r = 0; r < acts.rows(); ++r)
        referenceRow(acts, r, w, out.rowPtr(r));
    return out;
}

void
copyRow(const phi::BinaryMatrix& src, size_t srcRow, phi::BinaryMatrix& dst,
        size_t dstRow)
{
    for (size_t c = 0; c < src.cols(); c += 64) {
        const int len = static_cast<int>(std::min<size_t>(64, src.cols() - c));
        dst.deposit(dstRow, c, len, src.extract(srcRow, c, len));
    }
}

phi::Matrix<int16_t>
randomWeights(size_t rows, size_t cols, uint64_t seed)
{
    phi::Rng rng(seed);
    phi::Matrix<int16_t> w(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            w(r, c) = static_cast<int16_t>(rng.uniformInt(-64, 63));
    return w;
}

phi::CalibrationConfig
calibrationConfig(const phi::ExecutionConfig& exec)
{
    phi::CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 128;
    cfg.kmeans.maxIters = 12;
    cfg.kmeans.maxDistinct = 1536;
    cfg.exec = exec;
    return cfg;
}

// ---- per-layer kernel probe -------------------------------------------

LayerProbe
probeLayer(const phi::CompiledLayer& layer,
           const phi::Matrix<int16_t>& weights,
           const std::vector<const phi::BinaryMatrix*>& inputs,
           const std::vector<const phi::Matrix<int32_t>*>& refs,
           const phi::ExecutionConfig& exec, Report& report)
{
    LayerProbe p;
    p.name = layer.name();
    p.k = weights.rows();
    p.n = weights.cols();
    std::vector<double> dec, gather, gemm;
    std::vector<phi::SparsityBreakdown> parts;
    for (size_t i = 0; i < inputs.size(); ++i) {
        const phi::BinaryMatrix& acts = *inputs[i];
        p.m = acts.rows();

        auto t0 = Clock::now();
        phi::LayerDecomposition d = layer.decompose(acts, exec);
        dec.push_back(usSince(t0));

        phi::Matrix<int32_t> out =
            phi::Matrix<int32_t>::uninitialized(acts.rows(), weights.cols());
        t0 = Clock::now();
        layer.computeInto(out, d, exec);
        gather.push_back(usSince(t0));

        t0 = Clock::now();
        phi::Matrix<int32_t> bitSparse = phi::spikeGemm(acts, weights, exec);
        gemm.push_back(usSince(t0));

        if (!(phi::reconstructActivations(d, layer.table()) == acts))
            report.fail(p.name + ": L1+L2 does not reconstruct the input");
        const phi::SparsityBreakdown b = layer.breakdown(acts, d);
        const size_t ones = acts.popcount();
        if (ones + b.l2Neg != b.l1Ones + b.l2Pos || ones != b.bitOnes)
            report.fail(p.name + ": popcount " + std::to_string(ones) +
                        " != l1Ones + l2Pos - l2Neg");
        if (!(out == *refs[i]))
            report.fail(p.name + ": PWP gather output differs from A*W");
        if (!(bitSparse == *refs[i]))
            report.fail(p.name + ": spikeGemm output differs from A*W");
        parts.push_back(b);
    }
    p.decomposeUs = percentile(dec, 50);
    p.gatherUs = percentile(gather, 50);
    p.spikeGemmUs = percentile(gemm, 50);
    p.breakdown = phi::mergeBreakdowns(parts);
    return p;
}

phi::net::ParsedFrame
parseWholeFrame(const std::vector<uint8_t>& frame)
{
    phi::net::ParsedFrame pf;
    phi::net::WireErrorCode code{};
    std::string msg;
    if (phi::net::tryParseFrame(frame.data(), frame.size(), frame.size(),
                                pf, code, msg) !=
            phi::net::ParseStatus::Frame ||
        pf.frameLen != frame.size())
        throw std::runtime_error("codec: frame did not parse: " + msg);
    return pf;
}

void
addKernelMetrics(Report& report, const std::vector<LayerProbe>& probes,
                 double perCall)
{
    std::printf("%-10s %6s %6s %5s %3s %8s %8s %8s %11s %10s %11s %9s "
                "%9s\n",
                "layer", "m", "K", "n", "cnt", "bit_dens", "l2_dens",
                "idx_dens", "decomp_us", "gather_us", "spkgemm_us",
                "realized", "predicted");
    for (const LayerProbe& p : probes) {
        const phi::SparsityBreakdown& b = p.breakdown;
        std::printf("%-10s %6zu %6zu %5zu %3zu %8.4f %8.4f %8.4f %11.1f "
                    "%10.1f %11.1f %9.3f %9.3f\n",
                    p.name.c_str(), p.m, p.k, p.n, p.count, b.bitDensity,
                    b.l2Density(), b.indexDensity, p.decomposeUs,
                    p.gatherUs, p.spikeGemmUs, p.realized(),
                    b.speedupOverBit());
    }
    for (const LayerProbe& p : probes) {
        std::printf("layer-metric decompose.%s.us %.3f\n", p.name.c_str(),
                    p.decomposeUs);
        std::printf("layer-metric gather.%s.us %.3f\n", p.name.c_str(),
                    p.gatherUs);
        std::printf("layer-metric spikegemm.%s.us %.3f\n", p.name.c_str(),
                    p.spikeGemmUs);
        std::printf("layer-metric phi_over_bit.%s.realized %.4f\n",
                    p.name.c_str(), p.realized());
        std::printf("layer-metric phi_over_bit.%s.predicted %.4f\n",
                    p.name.c_str(), p.breakdown.speedupOverBit());
    }

    double decMs = 0, gatherMs = 0, gemmMs = 0;
    std::vector<phi::SparsityBreakdown> weighted;
    for (const LayerProbe& p : probes) {
        const double w = static_cast<double>(p.count) * perCall / 1e3;
        decMs += p.decomposeUs * w;
        gatherMs += p.gatherUs * w;
        gemmMs += p.spikeGemmUs * w;
        for (size_t c = 0; c < p.count; ++c)
            weighted.push_back(p.breakdown);
    }
    const phi::SparsityBreakdown all = phi::mergeBreakdowns(weighted);
    report.add("decompose.op_ms", decMs, "ms");
    report.add("gather.op_ms", gatherMs, "ms");
    report.add("spikegemm.op_ms", gemmMs, "ms");
    report.add("phi_over_bit.realized",
               decMs + gatherMs > 0 ? gemmMs / (decMs + gatherMs) : 0, "x");
    report.add("phi_over_bit.predicted", all.speedupOverBit(), "x");
    report.add("sparsity.bit_density", all.bitDensity, "fraction");
    report.add("sparsity.l2_density", all.l2Density(), "fraction");
    report.add("sparsity.index_density", all.indexDensity, "fraction");
}

void
addRunMetrics(Report& report, const phi::ServingStats& engine,
              const SetupTimes& setup, double baselineRate,
              double tracedRate, const Tracer& tracer,
              const std::string& spanPath)
{
    report.add("engine.linger_us", engine.meanLingerMicros(), "us");
    report.add("engine.requests_per_dispatch",
               engine.dispatches ? static_cast<double>(engine.requests) /
                                       static_cast<double>(engine.dispatches)
                                 : 0,
               "count");
    report.add("setup.calibrate_s", setup.calibrate, "s");
    report.add("setup.compile_s", setup.compile, "s");
    report.add("setup.save_s", setup.save, "s");
    report.add("setup.load_s", setup.load, "s");
    report.add("setup.pwp_resident_mb", setup.pwpResidentMb, "MB");
    report.add("trace.overhead_pct",
               tracedRate > 0 ? (baselineRate / tracedRate - 1) * 100 : 0,
               "%");
    report.add("trace.spans", static_cast<double>(tracer.size()), "count");
    tracer.write(spanPath);
}

const std::vector<std::pair<std::string, std::string>>&
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"decompose.op_ms", "ms"},
        {"gather.op_ms", "ms"},
        {"spikegemm.op_ms", "ms"},
        {"phi_over_bit.realized", "x"},
        {"phi_over_bit.predicted", "x"},
        {"sparsity.bit_density", "fraction"},
        {"sparsity.l2_density", "fraction"},
        {"sparsity.index_density", "fraction"},
        {"engine.linger_us", "us"},
        {"engine.requests_per_dispatch", "count"},
        {"engine.wait_ms", "ms"},
        {"session.round_ms", "ms"},
        {"session.rows_per_round", "count"},
        {"lif.frame_us", "us"},
        {"net.step_overhead_ms", "ms"},
        {"net.encode_us", "us"},
        {"net.parse_us", "us"},
        {"setup.calibrate_s", "s"},
        {"setup.compile_s", "s"},
        {"setup.save_s", "s"},
        {"setup.load_s", "s"},
        {"setup.pwp_resident_mb", "MB"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>>&
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"served_per_s", "1/s"},
    };
    return names;
}

} // namespace phibench
