/**
 * @file
 * Shared pieces of the end-to-end serving benchmark: options, the
 * result report and its JSON line, the span tracer of the traced run,
 * percentiles, host facts, and the benchmark's own A·W reference that
 * every served output is checked against.
 */

#ifndef PHIBENCH_COMMON_HH
#define PHIBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/compiled_model.hh"
#include "core/stats.hh"
#include "numeric/binary_matrix.hh"
#include "net/protocol.hh"
#include "numeric/matrix.hh"

namespace phibench
{

using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Flip one element of the first served output before it is
     *  checked: the run must then report correct=false and fail. */
    bool injectFault = false;
    /** served_per_s of the untraced run of the same workload, seed and
     *  length; the traced run reports its own rate against it as the
     *  tracing overhead. Required with --trace 1 (run.py supplies it). */
    double baselineRate = 0;
    /** Scratch directory for the .phim artifact and the span file. */
    std::string outDir = ".bench_build/out";
};

/** Record the instant main() was entered (the start of set-up). */
void markProcessStart();

/** Seconds since markProcessStart(). */
double sinceProcessStart();

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Online CPUs this process may run on (what `nproc` prints). */
size_t hostCpus();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * Spans of the traced run: name, start, end, parent span and request
 * id, kept in memory and written as JSON lines when the run ends.
 * A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    /** Switch recording on or off (between timed windows). */
    void enable(bool v) { on = v; }

    /** Open a span; returns its id (0 when disabled). */
    uint64_t begin(const char* name, uint64_t parent = 0,
                   uint64_t request = 0);

    /** Close span @p id. */
    void end(uint64_t id);

    size_t size() const;

    /** Write every span as one JSON object per line. */
    void write(const std::string& path) const;

  private:
    struct Record
    {
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t request = 0;
        const char* name = "";
        double startUs = 0;
        double endUs = -1;
    };

    std::atomic<bool> on;
    mutable std::mutex mu;
    std::vector<Record> records;
};

/** RAII span over one scope. */
class Span
{
  public:
    Span(Tracer& t, const char* name, uint64_t parent = 0,
         uint64_t request = 0)
        : tracer(t), spanId(t.begin(name, parent, request))
    {
    }
    ~Span() { tracer.end(spanId); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    uint64_t id() const { return spanId; }

  private:
    Tracer& tracer;
    uint64_t spanId;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Outcome of one run. Any failed check clears `correct`; the reasons
 * go to stderr so the last stdout line stays the JSON result.
 */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;

    void add(const std::string& name, double value,
             const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed check (the first few are kept verbatim). */
    void fail(const std::string& why);

    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;
};

/** Time of set-up stages, seconds, plus resident PWP bytes. */
struct SetupTimes
{
    double calibrate = 0;
    double compile = 0;
    double save = 0;
    double load = 0;
    double total = 0; // process start -> ready to serve
    double pwpResidentMb = 0;
};

/** p-th percentile (0..100) by linear interpolation; 0 when empty. */
double percentile(std::vector<double> v, double p);

double mean(const std::vector<double>& v);

/**
 * The finished operations of one timed window: when each finished
 * (seconds since the window started) and how long it took.
 *
 * served_per_s is a median over kSlices equal slices of the window. A
 * host disturbance that covers a few seconds of a run moves only the
 * slices it covers; a slower program moves every slice.
 */
struct Timeline
{
    static constexpr size_t kSlices = 10;

    double seconds = 0; // length of the window
    std::vector<double> doneS;
    std::vector<double> ms;

    void add(double done, double latencyMs)
    {
        doneS.push_back(done);
        ms.push_back(latencyMs);
    }

    /** Append @p other, whose window started at the same instant. */
    void merge(const Timeline& other);

    /** Median over the slices of stat(latencies of the operations that
     *  finished in the slice, slice length in s). Slices without an
     *  operation are skipped; an operation finishing after the window
     *  counts in the last slice. */
    double sliceMedian(
        const std::function<double(const std::vector<double>&, double)>&
            stat) const;
};

/**
 * The benchmark's own binary-activation product, independent of every
 * Phi code path: out[r] = sum of W rows at the set bits of row r.
 */
phi::Matrix<int32_t> referenceProduct(const phi::BinaryMatrix& acts,
                                      const phi::Matrix<int16_t>& w);

/** One row of referenceProduct() into @p out (w.cols() entries). */
void referenceRow(const phi::BinaryMatrix& acts, size_t row,
                  const phi::Matrix<int16_t>& w, int32_t* out);

/** Copy row @p srcRow of @p src into row @p dstRow of @p dst. */
void copyRow(const phi::BinaryMatrix& src, size_t srcRow,
             phi::BinaryMatrix& dst, size_t dstRow);

/** Fixed-seed int16 weights, uniform in [-64, 63]. */
phi::Matrix<int16_t> randomWeights(size_t rows, size_t cols,
                                   uint64_t seed);

/** Calibration knobs shared by both models (bounded k-means). */
phi::CalibrationConfig calibrationConfig(const phi::ExecutionConfig& exec);

/**
 * Per-layer kernel timings of the traced run, microseconds per call,
 * with the layer's sparsity accounting: the rows of the Over-B. table.
 */
struct LayerProbe
{
    std::string name;
    size_t m = 0, k = 0, n = 0, count = 1;
    double decomposeUs = 0;
    double gatherUs = 0;
    double spikeGemmUs = 0;
    phi::SparsityBreakdown breakdown;

    double realized() const
    {
        const double phi = decomposeUs + gatherUs;
        return phi > 0 ? spikeGemmUs / phi : 0;
    }
};

/**
 * Time decompose, the PWP gather (computeInto) and spikeGemm of
 * @p layer on each input, checking along the way that the
 * decomposition reconstructs the input bit for bit, that the popcount
 * equals l1Ones + l2Pos - l2Neg, and that both products equal the
 * reference. Medians over the inputs; failures go to @p report.
 */
LayerProbe probeLayer(const phi::CompiledLayer& layer,
                      const phi::Matrix<int16_t>& weights,
                      const std::vector<const phi::BinaryMatrix*>& inputs,
                      const std::vector<const phi::Matrix<int32_t>*>& refs,
                      const phi::ExecutionConfig& exec, Report& report);

/** Parse @p frame, which must hold exactly one whole frame; throws
 *  std::runtime_error otherwise. */
phi::net::ParsedFrame parseWholeFrame(const std::vector<uint8_t>& frame);

/** Median wall time of @p reps calls of @p fn, microseconds. */
template <typename F>
double
medianUs(int reps, F&& fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }
    return percentile(us, 50);
}

/**
 * Print the per-layer table and its `layer-metric` lines, and add the
 * kernel and sparsity metrics: per-operation times sum each probe's
 * median x count x @p perCall, and the breakdowns merge count-weighted.
 */
void addKernelMetrics(Report& report, const std::vector<LayerProbe>& probes,
                      double perCall);

/**
 * Add the engine's linger and batch size, the set-up stages and the
 * tracing overhead (the untraced run's rate @p baselineRate over this
 * run's @p tracedRate), and write the spans to @p spanPath.
 */
void addRunMetrics(Report& report, const phi::ServingStats& engine,
                   const SetupTimes& setup, double baselineRate,
                   double tracedRate, const Tracer& tracer,
                   const std::string& spanPath);

/** The per-layer metric names every traced run reports, in order. */
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/** The end-to-end metric names every untraced run reports, in order. */
const std::vector<std::pair<std::string, std::string>>& endToEndMetrics();

} // namespace phibench

#endif // PHIBENCH_COMMON_HH
